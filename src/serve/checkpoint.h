/**
 * @file
 * Crash-safe checkpoint files (DESIGN.md §12). The serving loop's
 * Q-table checkpoint and the fleet manifest (serve/fleet_checkpoint.h)
 * share one file format and one store; they differ only in their
 * header and sections.
 *
 * Envelope: a text body, then a footer line
 *
 *   crc32 <8 hex digits>
 *
 * covering every byte before it, so a truncated or bit-flipped file is
 * detected on read instead of being silently loaded. Bodies are
 * written and read in the classic "C" locale, so a file reads back
 * under any global locale.
 *
 * Store: CheckpointManager rotates the current file to `<path>.prev`
 * and then writes the new one through atomicWriteFile (temp file +
 * fsync + rename), so recovery after SIGKILL always finds either the
 * newest complete file or the one before it — never a torn file it
 * has to trust.
 *
 * The device checkpoint's body is
 *
 *   autoscale-checkpoint v1 <action-fingerprint> <step>
 *   <QTable::save text>
 *
 * Unlike QTable::load / AutoScaleScheduler::loadQTable, decoding here
 * never fatal()s: a corrupt file is an expected input on the recovery
 * path and is reported back so the store can fall back.
 */

#ifndef AUTOSCALE_SERVE_CHECKPOINT_H_
#define AUTOSCALE_SERVE_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

#include "core/qtable.h"

namespace autoscale::serve {

/**
 * The bytes of a checkpoint file: what @p writeBody writes to a
 * classic-locale stream, then the CRC footer over it.
 */
std::string sealCheckpoint(
    const std::function<void(std::ostream &)> &writeBody);

/**
 * Check the envelope of @p bytes (final newline, footer line, CRC) and
 * open the body it covers in @p body, in the classic locale. Returns
 * false with @p error naming @p kind ("checkpoint", "fleet manifest")
 * on the first problem found.
 */
bool openCheckpoint(const std::string &bytes, const char *kind,
                    std::istringstream *body, std::string *error);

/** Decoded checkpoint payload. */
struct CheckpointData {
    /** Action-space fingerprint the table was trained for. */
    std::string fingerprint;
    /** Serving step at which the checkpoint was taken. */
    std::int64_t step = 0;
    /** The restored Q-table. */
    core::QTable table{1, 1};
};

/** Serialize a checkpoint (header + table + CRC footer). */
std::string encodeCheckpoint(const std::string &fingerprint,
                             std::int64_t step, const core::QTable &table);

/**
 * Parse and validate @p bytes. Returns false (with @p error describing
 * the first problem found: bad magic, CRC mismatch, truncation,
 * non-finite values, absurd dimensions) without touching fatal() —
 * corrupt checkpoints are survivable, not programming errors.
 */
bool decodeCheckpoint(const std::string &bytes, CheckpointData *out,
                      std::string *error);

/** Where a recovered checkpoint came from. */
enum class CheckpointSource {
    None,    ///< No usable checkpoint found; cold start.
    Primary, ///< `<path>` itself was intact.
    Previous ///< `<path>` was missing/corrupt; `<path>.prev` was used.
};

/** Human-readable source name ("none"/"primary"/"prev"). */
const char *checkpointSourceName(CheckpointSource source);

/** Result of a recovery attempt, holding what @p Data decodes to. */
template <typename Data>
struct CheckpointLoadResult {
    bool loaded = false;
    CheckpointSource source = CheckpointSource::None;
    /** Files that existed but failed validation (0, 1, or 2). */
    int corruptDetected = 0;
    Data data;
    /** Why the primary (and possibly the fallback) was rejected. */
    std::string error;
};

/** Rotating two-deep checkpoint store at a fixed path. */
class CheckpointManager {
  public:
    explicit CheckpointManager(std::string path);

    /**
     * Persist one encoded file: rotate the current file to
     * `<path>.prev`, then atomically write @p bytes. Returns false
     * (with @p error filled when non-null) on I/O failure.
     */
    bool save(const std::string &bytes, std::string *error = nullptr);

    /**
     * Recover the newest intact file through @p decode: try `<path>`,
     * then `<path>.prev`. Corrupt files are counted and skipped.
     */
    template <typename Data>
    CheckpointLoadResult<Data>
    load(bool (*decode)(const std::string &, Data *, std::string *)) const
    {
        CheckpointLoadResult<Data> result;
        result.source = recover(
            [&](const std::string &bytes, std::string *error) {
                return decode(bytes, &result.data, error);
            },
            &result.corruptDetected, &result.error);
        result.loaded = result.source != CheckpointSource::None;
        return result;
    }

    const std::string &path() const { return path_; }
    const std::string &prevPath() const { return prevPath_; }

    /** Files successfully written through this store. */
    std::int64_t written() const { return written_; }

  private:
    CheckpointSource recover(
        const std::function<bool(const std::string &, std::string *)>
            &decode,
        int *corruptDetected, std::string *error) const;

    std::string path_;
    std::string prevPath_;
    std::int64_t written_ = 0;
};

} // namespace autoscale::serve

#endif // AUTOSCALE_SERVE_CHECKPOINT_H_
