// Fixture: the sanctioned pattern — one helper derives the path from the
// test name and pid. Mentions in comments or strings must not trip the
// rule: TempDir() + "x" is what the rule rejects.
#include <gtest/gtest.h>

#include <string>

namespace fixture {

std::string TempPath(const std::string& name);

void WriteScratch() {
  std::string path = TempPath("shared.json");
  const char* doc = "never write TempDir() + \"name\"";
  std::string dir = ::testing::TempDir();
  (void)path;
  (void)doc;
  (void)dir;
}

}  // namespace fixture
