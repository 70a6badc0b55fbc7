/**
 * @file
 * JSON checkpoint/resume of the bi-level driver state.
 *
 * After every MOBO trial the driver can serialize its complete
 * resumable state — MOBO observations and sampler RNG/kernel, the
 * High Fidelity Update Rule state, the Pareto archive, every
 * evaluation record, the convergence trace, fault counters and the
 * EvalClock ledger — to a JSON file. A killed search restarted with
 * the same DriverConfig and --resume replays the remaining trials
 * bit-for-bit: per-trial mapping-run seeds are derived from (config
 * seed, trial, slot), so an interrupted trial simply re-runs from
 * its start.
 *
 * Durability and integrity (version 2 format):
 *  - every checkpoint carries a CRC-64 trailer line
 *    ("#crc64:<16 hex>") over the document bytes; truncation or bit
 *    rot is *detected* at load instead of restoring garbage state;
 *  - the temp file (and its directory) are fsynced before the atomic
 *    rename, so a power loss right after a save cannot leave a
 *    present-but-empty checkpoint;
 *  - saveCheckpointRotated() keeps a window of the last K
 *    generations (path, path.1, ..., path.K-1) and
 *    loadNewestValidCheckpoint() falls back along that window past
 *    any generation that fails validation.
 */

#ifndef UNICO_CORE_CHECKPOINT_HH
#define UNICO_CORE_CHECKPOINT_HH

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/driver.hh"
#include "core/fidelity.hh"

namespace unico::core {

/** Everything needed to resume a co-search mid-run. */
struct SearchCheckpoint
{
    int version = 3;
    /** Fingerprint of the producing DriverConfig; resume refuses a
     *  checkpoint whose fingerprint differs from the live config. */
    std::string configKey;
    /** Identity of the producing evaluation stack (version 3+):
     *  backend table name, scenario label and workload digest.
     *  Empty in documents written by older versions — compatibility
     *  checks skip empty fields instead of refusing legacy files. */
    std::string backend;
    std::string scenario;
    std::string workloadDigest;
    int completedIterations = 0;
    double clockSeconds = 0.0;
    std::uint64_t clockEvaluations = 0;
    common::Json samplerState;             ///< MoboHwSampler::saveState()
    HighFidelitySelector::State selector{};
    CoSearchResult result;                 ///< records/front/trace/faults
};

/**
 * Stable fingerprint of the configuration fields that determine the
 * search trajectory (seed, batch, budgets, modes, recovery policy).
 */
std::string configFingerprint(const DriverConfig &cfg);

// StackIdentity (the identity triple stamped into checkpoints) now
// lives in core/job_context.hh — it is per-job state shared by the
// checkpoint layer, the stepped driver and the job manager.

/**
 * Typed resume refusal: the checkpoint on disk was produced by a
 * different configuration or evaluation stack (backend / scenario /
 * workload) than the live run. Derives from std::runtime_error so
 * existing catch sites keep working.
 */
class CheckpointMismatchError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};


/** Serialize / deserialize a checkpoint document. */
common::Json toJson(const SearchCheckpoint &ck);
SearchCheckpoint checkpointFromJson(const common::Json &doc);

/**
 * Outcome of a checkpoint I/O operation. ok() is false on failure,
 * with message carrying the reason (open/write/fsync/rename and the
 * affected path) so callers can report *why* instead of a bare bool.
 */
struct CheckpointIoStatus
{
    std::string message; ///< empty on success

    bool ok() const { return message.empty(); }
    explicit operator bool() const { return ok(); }

    static CheckpointIoStatus success() { return {}; }
    static CheckpointIoStatus
    failure(std::string why)
    {
        return CheckpointIoStatus{std::move(why)};
    }
};

/**
 * Compatibility verdict between a loaded checkpoint and the live
 * (config fingerprint, stack identity). Identity fields that are
 * empty on either side are skipped — documents predating version 3
 * carry no stack identity and remain resumable. Returns a failed
 * CheckpointIoStatus naming the first mismatching field.
 */
CheckpointIoStatus
checkpointCompatibility(const SearchCheckpoint &ck,
                        const std::string &liveConfigKey,
                        const StackIdentity &live);

/**
 * Durable atomic write: serialize with a CRC-64 trailer, fsync the
 * temp file and its directory, then rename over @p path.
 */
CheckpointIoStatus saveCheckpointFile(const std::string &path,
                                      const SearchCheckpoint &ck);

/**
 * Like saveCheckpointFile(), but first shifts existing generations
 * down the rotation window (path -> path.1 -> ... -> path.keep-1,
 * dropping the oldest) so the last @p keep checkpoints survive.
 * keep <= 1 disables rotation.
 */
CheckpointIoStatus saveCheckpointRotated(const std::string &path,
                                         const SearchCheckpoint &ck,
                                         int keep);

/** The n-th rotated generation path (n = 0 is @p path itself). */
std::string rotatedCheckpointPath(const std::string &path, int n);

/**
 * Load a checkpoint; std::nullopt when the file does not exist.
 * Throws std::runtime_error on a malformed document, a missing
 * integrity trailer, or a CRC mismatch (truncation / bit flip).
 */
std::optional<SearchCheckpoint>
loadCheckpointFile(const std::string &path);

/** A checkpoint recovered from the rotation window. */
struct RecoveredCheckpoint
{
    SearchCheckpoint checkpoint;
    std::string path;   ///< generation that validated
    int generation = 0; ///< 0 = newest, 1 = one save older, ...
    /** Diagnostics for newer generations that failed validation. */
    std::vector<std::string> rejected;
};

/**
 * Resume entry point: walk the rotation window newest-first and
 * return the first checkpoint that passes CRC + parse validation,
 * with the failures of any newer generations recorded in rejected.
 * Returns std::nullopt when no generation exists on disk; throws
 * std::runtime_error when generations exist but none validates
 * (starting silently from scratch would discard the whole run).
 */
std::optional<RecoveredCheckpoint>
loadNewestValidCheckpoint(const std::string &path, int keep);

} // namespace unico::core

#endif // UNICO_CORE_CHECKPOINT_HH
