/**
 * @file
 * Signal-safe graceful-shutdown support, scoped per installation.
 *
 * A ShutdownScope registers SIGINT/SIGTERM handlers that do nothing
 * but cancel the process-wide shutdownToken() (a lock-free atomic
 * store, the only thing a handler may safely do). Long-running loops
 * poll the token at iteration boundaries, drain in-flight work,
 * persist a final checkpoint and exit with a distinct resumable
 * status code (kExitResumable) so supervisors can tell "interrupted,
 * resume me" from success and from hard failure.
 *
 * Installation is scoped and refcounted: nested scopes share one
 * handler installation, and when the last scope is destroyed the
 * previous sigactions are restored and the shutdown token re-armed —
 * so tests and embedding servers can install, tear down and
 * re-install any number of times in one process without leaking
 * handler state. The legacy installShutdownHandlers() entry point
 * takes a process-lifetime reference that is never released.
 *
 * Multi-tenant fan-out: job schedulers register one CancelToken per
 * job with registerShutdownToken(); the signal handler itself walks
 * the lock-free registration table and cancels every registered
 * token (CancelToken is all lock-free atomics, so this is
 * async-signal-safe, and no watcher thread is started). Tokens
 * registered after the signal arrived are cancelled
 * immediately.
 *
 * A second SIGINT/SIGTERM while a graceful shutdown is already in
 * progress hard-exits with the conventional 128+signum code: an
 * operator pressing Ctrl-C twice means *now*.
 */

#ifndef UNICO_COMMON_SHUTDOWN_HH
#define UNICO_COMMON_SHUTDOWN_HH

#include "common/cancel.hh"

namespace unico::common {

/** Exit code of a run interrupted with resumable state on disk
 *  (EX_TEMPFAIL: "try again later"). */
constexpr int kExitResumable = 75;

/** The process-wide shutdown token cancelled by the handlers. */
CancelToken &shutdownToken();

/**
 * Scoped SIGINT/SIGTERM handler installation. The first live scope
 * saves the previous sigactions and installs the shutdown handlers;
 * the last one restores them and re-arms the shutdown token. Scopes
 * may nest freely (refcounted); construction is idempotent in
 * effect.
 */
class ShutdownScope
{
  public:
    ShutdownScope();
    ~ShutdownScope();

    ShutdownScope(const ShutdownScope &) = delete;
    ShutdownScope &operator=(const ShutdownScope &) = delete;
};

/**
 * Fan-out registration: @p token is cancelled (CancelReason::Signal)
 * when a shutdown signal arrives — immediately at registration time
 * if one already has. The token must stay alive until unregistered.
 * Returns false when the fan-out table is full (the token will still
 * see shutdown if its owner also polls shutdownRequested()).
 */
bool registerShutdownToken(CancelToken &token);

/** Remove @p token from the fan-out table (idempotent). */
void unregisterShutdownToken(CancelToken &token);

/** Number of currently registered fan-out tokens (tests). */
std::size_t shutdownFanoutSize();

/**
 * Install the SIGINT/SIGTERM handlers for the remaining lifetime of
 * the process (legacy entry point; acquires one ShutdownScope
 * reference that is never released). Idempotent.
 */
void installShutdownHandlers();

/** True once a shutdown signal has been received. */
bool shutdownRequested();

/** The signal that requested shutdown, or 0. */
int shutdownSignal();

/** Re-arm after a handled shutdown (tests and long-lived servers). */
void clearShutdownRequest();

} // namespace unico::common

#endif // UNICO_COMMON_SHUTDOWN_HH
