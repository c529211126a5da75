// Fixture: unchecked-parse violations. The rule applies under tools/,
// bench/, examples/ and src/app/, which is why this fixture sits in a
// tools/ directory. Expected findings: lines 11, 12, 13, 14.
#include <cstdlib>
#include <string>

namespace fixture {
struct Flags { int reps; long long agents; double space; long seed; };

void Parse(Flags* f, char** argv, const std::string& v) {
  f->reps = std::atoi(argv[1]);
  f->agents = std::atoll(argv[2]);
  f->space = atof(v.c_str());
  f->seed = std::atol(argv[3]);
}
}  // namespace fixture
