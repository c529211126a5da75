// Rank-style in-process message transport for the sharded pipeline.
//
// The sharded step is written as if each shard were an MPI rank: shards
// exchange typed buffers (halo ghosts, migration payloads) through Send/Recv
// on (source, destination, tag) channels. The join between the shard
// runtime's shard-parallel phases is the protocol's barrier.
// This keeps the halo protocol explicit — a shard can only learn about
// another shard's agents through a message it can count and byte-size — so
// the cross-shard data flow is auditable (shard/<k>/ghosts_shipped metrics)
// and a future distributed backend can drop in a real transport behind the
// same calls.
//
// Delivery is deterministic: each (src, dst, tag) channel is an independent
// FIFO, so a receiver always drains messages in the sender's send order, and
// which messages exist depends only on simulation state, never on thread
// scheduling. The mutex serializes map access only; it cannot reorder a
// channel.
#ifndef BIOSIM_CORE_COMMUNICATOR_H_
#define BIOSIM_CORE_COMMUNICATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace biosim {

class Communicator {
 public:
  explicit Communicator(uint32_t ranks) : ranks_(ranks) {}

  uint32_t ranks() const { return ranks_; }

  /// Enqueue `payload` on the (src, dst, tag) channel. The payload is moved
  /// into a type-erased slot; Recv with a mismatched T throws.
  template <typename T>
  void Send(uint32_t src, uint32_t dst, int tag, std::vector<T> payload) {
    CheckRank(src, "Send src");
    CheckRank(dst, "Send dst");
    Message m;
    m.type = TypeTag<T>();
    m.bytes = payload.size() * sizeof(T);
    const size_t bytes = m.bytes;
    m.payload = std::make_shared<std::vector<T>>(std::move(payload));
    {
      std::lock_guard<std::mutex> lock(mu_);
      channels_[Key(src, dst, tag)].push_back(std::move(m));
    }
    ++messages_sent_;
    bytes_sent_ += bytes;
  }

  /// Dequeue the oldest message on the (src, dst, tag) channel. Throws
  /// std::logic_error when the channel is empty (the sharded step's phases
  /// are barrier-separated, so a missing message is a protocol bug, not a
  /// race) or when the payload type differs from the Send.
  template <typename T>
  std::vector<T> Recv(uint32_t src, uint32_t dst, int tag) {
    CheckRank(src, "Recv src");
    CheckRank(dst, "Recv dst");
    Message m;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = channels_.find(Key(src, dst, tag));
      if (it == channels_.end() || it->second.empty()) {
        throw std::logic_error("Communicator: Recv on empty channel " +
                               std::to_string(src) + "->" +
                               std::to_string(dst) + " tag " +
                               std::to_string(tag));
      }
      m = std::move(it->second.front());
      it->second.pop_front();
    }
    if (m.type != TypeTag<T>()) {
      throw std::logic_error("Communicator: Recv type mismatch on channel " +
                             std::to_string(src) + "->" + std::to_string(dst) +
                             " tag " + std::to_string(tag));
    }
    auto* vec = static_cast<std::vector<T>*>(m.payload.get());
    return std::move(*vec);
  }

  /// Whether a message is pending on the channel.
  bool HasMessage(uint32_t src, uint32_t dst, int tag) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = channels_.find(Key(src, dst, tag));
    return it != channels_.end() && !it->second.empty();
  }

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  /// Undelivered messages across all channels (protocol leak detector).
  size_t PendingMessages() const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (const auto& [key, q] : channels_) {
      n += q.size();
    }
    return n;
  }

 private:
  struct Message {
    const void* type = nullptr;
    std::shared_ptr<void> payload;
    size_t bytes = 0;
  };

  /// Unique per-T address, stable across TUs (inline variable).
  template <typename T>
  static const void* TypeTag() {
    static const char tag = 0;
    return &tag;
  }

  static uint64_t Key(uint32_t src, uint32_t dst, int tag) {
    return (static_cast<uint64_t>(src) << 40) |
           (static_cast<uint64_t>(dst) << 16) |
           static_cast<uint64_t>(static_cast<uint16_t>(tag));
  }

  void CheckRank(uint32_t r, const char* what) const {
    if (r >= ranks_) {
      throw std::out_of_range("Communicator: " + std::string(what) + " " +
                              std::to_string(r) + " >= ranks " +
                              std::to_string(ranks_));
    }
  }

  const uint32_t ranks_;
  mutable std::mutex mu_;
  std::map<uint64_t, std::deque<Message>> channels_;
  std::atomic<uint64_t> messages_sent_{0};
  std::atomic<uint64_t> bytes_sent_{0};
};

}  // namespace biosim

#endif  // BIOSIM_CORE_COMMUNICATOR_H_
