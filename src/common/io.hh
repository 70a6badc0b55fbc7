/**
 * @file
 * EINTR-safe file-descriptor I/O helpers.
 *
 * The driver installs signal handlers without SA_RESTART (so blocking
 * syscalls wake up for graceful shutdown), which means *every* raw
 * read/write in the process can short-transfer or fail with EINTR at
 * any time. These loops are the single place that gets the retry
 * logic right; checkpoint durability and the job server both build
 * on them instead of hand-rolling partial-I/O handling at each call
 * site.
 */

#ifndef UNICO_COMMON_IO_HH
#define UNICO_COMMON_IO_HH

#include <cstddef>
#include <string>

namespace unico::common {

/** Outcome of a full-buffer transfer or readiness wait. */
enum class IoStatus {
    Ok,      ///< every requested byte was transferred
    Eof,     ///< peer closed before any/all bytes arrived
    Timeout, ///< deadline expired while waiting for readiness
    Error,   ///< syscall failure other than EINTR (errno is set)
};

/** Human-readable status name. */
const char *toString(IoStatus status);

/** Monotonic clock in seconds (immune to wall-clock steps). The
 *  absolute-deadline transfer helpers below measure against it, so
 *  callers composing several transfers under one budget share the
 *  same time base. */
double monotonicNow();

/**
 * Write exactly @p len bytes from @p buf, retrying short writes,
 * EINTR, and (on non-blocking descriptors) EAGAIN via a readiness
 * wait. On sockets the transfer suppresses SIGPIPE (MSG_NOSIGNAL)
 * so a dead peer surfaces as Error/EPIPE instead of killing the
 * process. Returns Eof on EPIPE, Error otherwise.
 */
IoStatus writeFull(int fd, const void *buf, std::size_t len);

/** writeFull over a string's bytes. */
IoStatus writeFull(int fd, const std::string &bytes);

/**
 * Wait until @p fd is readable. @p deadline_seconds <= 0 waits
 * forever. Returns Ok (readable or peer-closed — the next read
 * resolves which), Timeout, or Error. EINTR restarts the wait with
 * the remaining time.
 */
IoStatus waitReadable(int fd, double deadline_seconds);

/**
 * Wait until @p fd accepts more output without blocking.
 * @p deadline_seconds <= 0 waits forever. Same contract as
 * waitReadable, for the send direction.
 */
IoStatus waitWritable(int fd, double deadline_seconds);

/**
 * Read exactly @p len bytes into @p buf, retrying short reads, EINTR
 * and (on non-blocking descriptors) EAGAIN via a readiness wait,
 * bounded by an *absolute* monotonicNow()-based deadline (<= 0 waits
 * forever). Returns Ok, Eof if the peer closed first, Timeout or
 * Error; @p got, when non-null, receives the bytes read so far.
 * Several transfers passed the same value share one budget — this is
 * what lets a request read enforce a single deadline across header
 * and body instead of restarting the clock per call (the slow-loris
 * hole).
 */
IoStatus readFullUntil(int fd, void *buf, std::size_t len,
                       double deadline_monotonic,
                       std::size_t *got = nullptr);

/** writeFull bounded by an absolute monotonicNow()-based deadline
 *  (<= 0 waits forever). A peer that stops reading surfaces as
 *  Timeout instead of wedging the caller in write(2). */
IoStatus writeFullUntil(int fd, const void *buf, std::size_t len,
                        double deadline_monotonic);

/** writeFullUntil over a string's bytes. */
IoStatus writeFullUntil(int fd, const std::string &bytes,
                        double deadline_monotonic);

/** Set (or clear) O_NONBLOCK. Returns false on error. */
bool setNonblocking(int fd, bool enable = true);

/** Set (or clear) the close-on-exec flag. Returns false on error. */
bool setCloexec(int fd, bool enable = true);

} // namespace unico::common

#endif // UNICO_COMMON_IO_HH
