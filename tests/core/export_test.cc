#include "core/export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "../test_util.h"

namespace biosim {
namespace {

using testutil::TempPath;

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    NewAgentSpec a;
    a.position = {1.5, 2.5, 3.5};
    a.diameter = 10.0;
    a.adherence = 0.4;
    rm_.AddAgent(std::move(a));
    NewAgentSpec b;
    b.position = {-4.0, 5.0, 6.0};
    b.diameter = 8.0;
    rm_.AddAgent(std::move(b));
  }

  std::string ReadAll(const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  ResourceManager rm_;
};

TEST_F(ExportTest, CsvHasHeaderAndOneRowPerCell) {
  std::string path = TempPath("cells.csv");
  ASSERT_TRUE(ExportCellsCsv(rm_, path));
  std::string content = ReadAll(path);
  EXPECT_NE(content.find("uid,x,y,z,diameter,volume,adherence"),
            std::string::npos);
  EXPECT_NE(content.find("0,1.5,2.5,3.5,10,"), std::string::npos);
  EXPECT_NE(content.find("1,-4,5,6,8,"), std::string::npos);
  // header + 2 rows
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 3);
  std::remove(path.c_str());
}

TEST_F(ExportTest, VtkStructureIsValid) {
  std::string path = TempPath("cells.vtk");
  ASSERT_TRUE(ExportCellsVtk(rm_, path));
  std::string content = ReadAll(path);
  EXPECT_NE(content.find("# vtk DataFile Version 3.0"), std::string::npos);
  EXPECT_NE(content.find("DATASET POLYDATA"), std::string::npos);
  EXPECT_NE(content.find("POINTS 2 double"), std::string::npos);
  EXPECT_NE(content.find("POINT_DATA 2"), std::string::npos);
  EXPECT_NE(content.find("SCALARS diameter double 1"), std::string::npos);
  EXPECT_NE(content.find("SCALARS volume double 1"), std::string::npos);
  EXPECT_NE(content.find("SCALARS uid unsigned_long 1"), std::string::npos);
  EXPECT_NE(content.find("1.5 2.5 3.5"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ExportTest, EmptyPopulationStillWritesValidFiles) {
  ResourceManager empty;
  std::string csv = TempPath("empty.csv");
  std::string vtk = TempPath("empty.vtk");
  ASSERT_TRUE(ExportCellsCsv(empty, csv));
  ASSERT_TRUE(ExportCellsVtk(empty, vtk));
  EXPECT_NE(ReadAll(csv).find("uid,"), std::string::npos);
  EXPECT_NE(ReadAll(vtk).find("POINTS 0 double"), std::string::npos);
  std::remove(csv.c_str());
  std::remove(vtk.c_str());
}

TEST_F(ExportTest, UnwritablePathReturnsFalse) {
  EXPECT_FALSE(ExportCellsCsv(rm_, "/nonexistent_dir_xyz/cells.csv"));
  EXPECT_FALSE(ExportCellsVtk(rm_, "/nonexistent_dir_xyz/cells.vtk"));
}

}  // namespace
}  // namespace biosim
