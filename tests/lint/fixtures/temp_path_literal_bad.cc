// Fixture: temp-path-literal violations. Expected findings on lines 9, 10, 14.
#include <gtest/gtest.h>

#include <string>

namespace fixture {

void WriteScratch(const char* name) {
  std::string a = ::testing::TempDir() + "shared.json";
  std::string b = std::string(::testing::TempDir()) + "/" + name;
  (void)a;
  (void)b;
}
std::string Golden() { return testing::TempDir() + R"(golden.txt)"; }

}  // namespace fixture
