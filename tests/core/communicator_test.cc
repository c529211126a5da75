// Communicator: the in-process rank transport behind the sharded pipeline
// (core/communicator.h). Channels are per-(src, dst, tag) FIFOs with typed
// payloads; the barrier is a phase-counting rendezvous.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/communicator.h"

namespace biosim {
namespace {

TEST(CommunicatorTest, SendRecvRoundTripsTypedPayloads) {
  Communicator comm(4);
  comm.Send<int32_t>(0, 1, /*tag=*/7, {1, 2, 3});
  comm.Send<double>(2, 1, /*tag=*/7, {0.5});
  EXPECT_TRUE(comm.HasMessage(0, 1, 7));
  EXPECT_FALSE(comm.HasMessage(1, 0, 7));

  auto ints = comm.Recv<int32_t>(0, 1, 7);
  EXPECT_EQ(ints, (std::vector<int32_t>{1, 2, 3}));
  auto doubles = comm.Recv<double>(2, 1, 7);
  EXPECT_EQ(doubles, (std::vector<double>{0.5}));
  EXPECT_EQ(comm.PendingMessages(), 0u);
}

TEST(CommunicatorTest, ChannelsAreFifoPerSourceDestTag) {
  Communicator comm(2);
  comm.Send<int32_t>(0, 1, 0, {1});
  comm.Send<int32_t>(0, 1, 0, {2});
  EXPECT_EQ(comm.Recv<int32_t>(0, 1, 0), std::vector<int32_t>{1});
  EXPECT_EQ(comm.Recv<int32_t>(0, 1, 0), std::vector<int32_t>{2});
}

TEST(CommunicatorTest, TagsIsolateChannels) {
  // The K == 2 torus case: both halo messages travel between the same pair
  // of ranks and must stay distinguishable by direction tag.
  Communicator comm(2);
  comm.Send<int32_t>(0, 1, /*kTagToUpper=*/0, {10});
  comm.Send<int32_t>(0, 1, /*kTagToLower=*/1, {20});
  EXPECT_EQ(comm.Recv<int32_t>(0, 1, 1), std::vector<int32_t>{20});
  EXPECT_EQ(comm.Recv<int32_t>(0, 1, 0), std::vector<int32_t>{10});
}

TEST(CommunicatorTest, RecvOnEmptyChannelThrows) {
  Communicator comm(2);
  EXPECT_THROW(comm.Recv<int32_t>(0, 1, 0), std::logic_error);
}

TEST(CommunicatorTest, RecvTypeMismatchThrows) {
  Communicator comm(2);
  comm.Send<int32_t>(0, 1, 0, {1});
  EXPECT_THROW(comm.Recv<double>(0, 1, 0), std::logic_error);
}

TEST(CommunicatorTest, OutOfRangeRankThrows) {
  Communicator comm(2);
  EXPECT_THROW(comm.Send<int32_t>(2, 0, 0, {}), std::out_of_range);
  EXPECT_THROW(comm.Recv<int32_t>(0, 5, 0), std::out_of_range);
}

TEST(CommunicatorTest, CountsMessagesAndBytes) {
  Communicator comm(2);
  comm.Send<int32_t>(0, 1, 0, {1, 2, 3});        // 12 bytes
  comm.Send<double>(1, 0, 0, {1.0, 2.0});        // 16 bytes
  EXPECT_EQ(comm.messages_sent(), 2u);
  EXPECT_EQ(comm.bytes_sent(), 12u + 16u);
  EXPECT_EQ(comm.PendingMessages(), 2u);
}

}  // namespace
}  // namespace biosim
