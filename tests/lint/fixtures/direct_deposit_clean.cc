// Fixture: the sanctioned deposit path — behaviors go through the buffered
// SimContext::DepositSubstance; declaring IncreaseConcentrationBy (no receiver) is fine.
namespace fixture {
struct Double3 {
  double x, y, z;
};
struct DiffusionGrid {
  // Declaration only; not a receiver-qualified call.
  void IncreaseConcentrationBy(const Double3& pos, double amount);
};
struct SimContext {
  void DepositSubstance(const Double3& pos, double amount);
};

struct SecretionBehavior {
  void Run(SimContext& ctx, const Double3& pos) {
    ctx.DepositSubstance(pos, 1.0);  // buffered, merged in agent-index order
  }
};
}  // namespace fixture
