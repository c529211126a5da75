// Fixture: the sanctioned pattern — flags parsed by checked parsers that
// reject malformed values. Mentions of std::atoi() in comments or strings
// must not trip the rule: "never call atoll() on a flag".
#include <string>

namespace fixture {
unsigned long ToCount(const std::string& v, const std::string& flag);
struct Env { double atof_fallback; };

unsigned long Parse(char** argv, const Env& env) {
  const char* doc = "atof() is banned; see docs";
  (void)doc;
  (void)env.atof_fallback;  // an identifier that merely starts with ato
  return ToCount(argv[1], "--agents");
}
}  // namespace fixture
