// Fixture: cross-shard-write violations. A shard scope may not apply
// domain-global effects directly; it buffers them and merges them after
// the phase join.
// Expected findings: line 15 (also direct-deposit), 16, 17.
#define BIOSIM_SHARD_SCOPE_BEGIN() static_cast<void>(0)
#define BIOSIM_SHARD_SCOPE_END() static_cast<void>(0)

namespace fixture {
struct Grid { void IncreaseConcentrationBy(const double*, double) {} };
struct Rm { void AddAgent(int) {} void RemoveAgent(int) {} };

void StepShard(Grid* grid, Rm& rm, const double* pos) {
  BIOSIM_SHARD_SCOPE_BEGIN();
  // Each of these must be buffered and merged after the phase join:
  grid->IncreaseConcentrationBy(pos, 0.5);
  rm.AddAgent(1);
  rm.RemoveAgent(2);
  BIOSIM_SHARD_SCOPE_END();
}
}  // namespace fixture
