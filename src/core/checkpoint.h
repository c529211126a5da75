// Binary checkpoint / restore of a simulation population.
//
// Saves the full SoA state (all attribute arrays + uid counter) so long
// runs can be resumed or benchmark populations shipped. The format is a
// small versioned binary layout — magic, version, count, then each array —
// with explicit little-endian 64-bit sizes so files are portable between
// builds.
//
// Behaviors are *not* serialized (they are arbitrary code); after restore,
// re-attach behaviors model-side. This matches how agent-based frameworks
// usually treat checkpoints: state is data, programs are code.
#ifndef BIOSIM_CORE_CHECKPOINT_H_
#define BIOSIM_CORE_CHECKPOINT_H_

#include <string>

#include "core/resource_manager.h"

namespace biosim {

/// Write the population to `path`. Returns false on I/O failure.
bool SaveCheckpoint(const ResourceManager& rm, const std::string& path);

/// Replace `rm`'s population with the checkpoint's. Returns false on I/O
/// failure, format mismatch, an array count larger than the file, or a uid
/// counter not above every restored uid (in each case `rm` is left
/// unchanged).
bool LoadCheckpoint(ResourceManager* rm, const std::string& path);

}  // namespace biosim

#endif  // BIOSIM_CORE_CHECKPOINT_H_
