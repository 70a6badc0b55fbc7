/**
 * @file
 * Chaos harness: forks the real co_search_cli binary, SIGKILLs it at
 * randomized points mid-search, resumes from the checkpoint rotation
 * window, and asserts the final outputs are byte-identical to an
 * uninterrupted run with the same seed — records CSV, Pareto-front
 * CSV, trace CSV and the final checkpoint document itself.
 *
 * Also covers the graceful path (SIGTERM drains and exits with the
 * resumable status code 75), recovery from a corrupted newest
 * checkpoint generation (bit flip / truncation -> fall back to the
 * previous generation), a resume under a different thread topology,
 * and the usage error for the removed evaluation-fleet flags.
 */

#include <gtest/gtest.h>

#if defined(_WIN32)

TEST(Chaos, SkippedOnWindows) { GTEST_SKIP(); }

#else

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

namespace {

/** Compile-time path of the CLI under test. */
const char *const kCli = UNICO_CLI_PATH;

/** Deterministic LCG for kill delays (std::rand is process-global
 *  state; the harness must not depend on it). */
struct Lcg
{
    std::uint64_t s;
    explicit Lcg(std::uint64_t seed) : s(seed) {}
    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 33;
    }
};

std::string
makeTempDir(const std::string &tag)
{
    std::string tmpl = "/tmp/unico_chaos_" + tag + "_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *dir = mkdtemp(buf.data());
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << "missing file: " << path;
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** The search configuration every scenario runs: ~0.4 s of real time
 *  across 10 trials, so randomized kills land mid-search. */
std::vector<std::string>
cliArgs(const std::string &dir, bool resume)
{
    std::vector<std::string> args = {
        kCli,           "resnet",
        "--batch",      "16",
        "--iters",      "10",
        "--bmax",       "400",
        "--seed",       "3",
        "--checkpoint", dir + "/ck.json",
        "--csv-prefix", dir + "/out",
    };
    if (resume)
        args.push_back("--resume");
    return args;
}

/** Fork + exec @p args with stdout silenced; stderr goes to
 *  @p stderr_path when non-empty. */
pid_t
spawn(const std::vector<std::string> &args,
      const std::string &stderr_path = {})
{
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (const auto &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    // Flush before fork: the child would otherwise replay the
    // parent's buffered output when freopen flushes the stream.
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
        // Child: silence stdout so test output stays readable.
        std::freopen("/dev/null", "w", stdout);
        if (!stderr_path.empty())
            std::freopen(stderr_path.c_str(), "w", stderr);
        execv(argv[0], argv.data());
        _exit(127); // exec failed
    }
    return pid;
}

/** Outcome of one supervised child run. */
struct RunOutcome
{
    bool killed = false; ///< we SIGKILLed it mid-run
    int exitCode = -1;   ///< valid when !killed
};

/**
 * Run the CLI; SIGKILL it after @p kill_after_ms unless it exits
 * first. kill_after_ms < 0 lets it run to completion.
 */
RunOutcome
runMaybeKill(const std::vector<std::string> &args, int kill_after_ms)
{
    const pid_t pid = spawn(args);
    EXPECT_GT(pid, 0);
    RunOutcome out;
    int status = 0;
    if (kill_after_ms >= 0) {
        // Poll in 1 ms steps until the deadline, then shoot.
        for (int waited = 0; waited < kill_after_ms; ++waited) {
            const pid_t r = waitpid(pid, &status, WNOHANG);
            if (r == pid) {
                out.exitCode =
                    WIFEXITED(status) ? WEXITSTATUS(status) : -2;
                return out;
            }
            usleep(1000);
        }
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
        out.killed = true;
        return out;
    }
    waitpid(pid, &status, 0);
    out.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -2;
    return out;
}

void
removeArtifacts(const std::string &dir)
{
    for (const char *f :
         {"/ck.json", "/ck.json.1", "/ck.json.2", "/ck.json.tmp",
          "/out_records.csv", "/out_front.csv", "/out_trace.csv",
          "/out_cache.csv", "/out_faults.csv"})
        std::remove((dir + f).c_str());
}

/** Uninterrupted reference run in its own directory. */
std::string
makeBaseline(const std::string &tag)
{
    const std::string dir = makeTempDir(tag);
    const auto out = runMaybeKill(cliArgs(dir, false), -1);
    EXPECT_FALSE(out.killed);
    EXPECT_EQ(out.exitCode, 0);
    return dir;
}

void
expectSameOutputs(const std::string &base_dir,
                  const std::string &chaos_dir, bool compare_checkpoint)
{
    for (const char *f :
         {"/out_records.csv", "/out_front.csv", "/out_trace.csv"})
        EXPECT_EQ(readFile(base_dir + f), readFile(chaos_dir + f))
            << "divergent output: " << f;
    if (compare_checkpoint) {
        EXPECT_EQ(readFile(base_dir + "/ck.json"),
                  readFile(chaos_dir + "/ck.json"))
            << "divergent final checkpoint";
    }
}

} // namespace

TEST(Chaos, SigkillAndResumeReproducesUninterruptedRun)
{
    const std::string base = makeBaseline("base");
    const std::string dir = makeTempDir("kill");
    Lcg rng(0x5eedULL);

    int kills = 0;
    bool completed = false;
    // Randomized kill points; once at least 3 kills landed, let the
    // search finish. Each cycle is one spawn (fresh or resumed).
    for (int attempt = 0; attempt < 60 && !completed; ++attempt) {
        const bool resume = fileExists(dir + "/ck.json") ||
                            fileExists(dir + "/ck.json.1");
        const int delay =
            kills < 3 ? 5 + static_cast<int>(rng.next() % 150) : -1;
        const auto out = runMaybeKill(cliArgs(dir, resume), delay);
        if (out.killed) {
            ++kills;
        } else {
            ASSERT_EQ(out.exitCode, 0);
            completed = kills >= 3;
            if (!completed) {
                // Finished before enough kills landed: restart the
                // scenario from scratch with fresh randomness.
                removeArtifacts(dir);
            }
        }
    }
    ASSERT_TRUE(completed) << "chaos loop never completed";
    ASSERT_GE(kills, 3);
    // Byte-identical outputs *and* final checkpoint: the interrupted
    // trial was rolled back and replayed, never double-counted.
    expectSameOutputs(base, dir, true);
}

TEST(Chaos, SigtermDrainsCheckpointsAndExitsResumable)
{
    const std::string base = makeBaseline("gbase");
    const std::string dir = makeTempDir("term");

    // SIGTERM mid-run: expect the documented resumable exit code.
    bool interrupted = false;
    for (int attempt = 0; attempt < 20 && !interrupted; ++attempt) {
        const bool resume = fileExists(dir + "/ck.json");
        const pid_t pid = spawn(cliArgs(dir, resume));
        ASSERT_GT(pid, 0);
        // Signal once the first checkpoint exists (the handler is
        // installed by then, however slow the build), unless the run
        // finishes first; 60 s bounds the wait.
        int status = 0;
        bool exited = false;
        for (int waited_ms = 0; waited_ms < 60 * 1000; ++waited_ms) {
            exited = waitpid(pid, &status, WNOHANG) == pid;
            if (exited || fileExists(dir + "/ck.json"))
                break;
            usleep(1000);
        }
        if (!exited) {
            kill(pid, SIGTERM);
            waitpid(pid, &status, 0);
        }
        ASSERT_TRUE(WIFEXITED(status))
            << "SIGTERM must be handled, not kill the process";
        const int code = WEXITSTATUS(status);
        if (code == 75 && fileExists(dir + "/ck.json")) {
            // Graceful drain left a resumable checkpoint behind.
            interrupted = true;
        } else if (code == 75) {
            // Interrupted before the first trial boundary: nothing
            // to checkpoint yet; try again.
        } else {
            // The run finished before the signal landed; go again.
            ASSERT_EQ(code, 0);
            removeArtifacts(dir);
        }
    }
    ASSERT_TRUE(interrupted) << "SIGTERM never landed mid-run";

    // Resuming after the graceful stop completes the identical run.
    const auto out = runMaybeKill(cliArgs(dir, true), -1);
    ASSERT_EQ(out.exitCode, 0);
    expectSameOutputs(base, dir, true);
}

TEST(Chaos, CorruptedNewestCheckpointFallsBackToPreviousGeneration)
{
    const std::string base = makeBaseline("cbase");
    const std::string dir = makeTempDir("corrupt");

    // Complete run: rotation window now holds generations 0..2.
    ASSERT_EQ(runMaybeKill(cliArgs(dir, false), -1).exitCode, 0);
    ASSERT_TRUE(fileExists(dir + "/ck.json.1"));

    // Flip one byte in the middle of the newest generation.
    {
        std::string bytes = readFile(dir + "/ck.json");
        ASSERT_GT(bytes.size(), 100u);
        bytes[bytes.size() / 2] ^= 0x40;
        std::ofstream(dir + "/ck.json", std::ios::binary) << bytes;
    }

    // Resume detects the bit flip via CRC, falls back to generation
    // 1 (one trial earlier), replays it, and converges to the same
    // outputs. The final checkpoint is not compared: its fault
    // counters record the recovery.
    const auto out = runMaybeKill(cliArgs(dir, true), -1);
    ASSERT_EQ(out.exitCode, 0);
    expectSameOutputs(base, dir, false);

    // Truncation of *every* generation must refuse to resume rather
    // than silently restart from scratch.
    for (const char *f : {"/ck.json", "/ck.json.1", "/ck.json.2"})
        std::ofstream(dir + f, std::ios::binary) << "{ torn write";
    const auto refused = runMaybeKill(cliArgs(dir, true), -1);
    EXPECT_EQ(refused.exitCode, 1);
}

TEST(Chaos, ThreadTopologyKillResumesAcrossTopologies)
{
    // Kill the process mid-run while it searches on 4 round threads
    // with batched evaluation, then resume on one thread: checkpoint
    // identity deliberately excludes the execution topology, so the
    // resumed search must converge to the serial baseline
    // bit-for-bit, final checkpoint included.
    const std::string base = makeBaseline("tbase");
    const std::string dir = makeTempDir("tkill");
    Lcg rng(0xf1ee7ULL);

    int kills = 0;
    bool completed = false;
    for (int attempt = 0; attempt < 60 && !completed; ++attempt) {
        const bool resume = fileExists(dir + "/ck.json") ||
                            fileExists(dir + "/ck.json.1");
        std::vector<std::string> args = cliArgs(dir, resume);
        // First leg is parallel; later legs (after the kill) are
        // serial.
        if (kills == 0)
            args.insert(args.end(),
                        {"--threads", "4", "--batch-evals", "2"});
        else
            args.insert(args.end(), {"--threads", "1"});
        const int delay =
            kills < 1 ? 20 + static_cast<int>(rng.next() % 150) : -1;
        const auto out = runMaybeKill(args, delay);
        if (out.killed) {
            ++kills;
        } else {
            ASSERT_EQ(out.exitCode, 0);
            completed = kills >= 1;
            if (!completed)
                removeArtifacts(dir);
        }
    }
    ASSERT_TRUE(completed) << "topology kill loop never completed";
    expectSameOutputs(base, dir, true);
}

TEST(Chaos, RemovedFleetFlagsFailWithUsageError)
{
    // The evaluation fleet is gone. Its flags must fail loudly rather
    // than be ignored: a stale --fleet-connect would otherwise start
    // a full search of its own.
    const std::string dir = makeTempDir("flags");
    const std::vector<std::vector<std::string>> removed = {
        {"--workers", "2"},
        {"--fleet-connect", "127.0.0.1:1"},
        {"--worker-chaos-kills", "3"},
        {"--fleet-listen", "127.0.0.1:0"},
    };
    for (const auto &flag : removed) {
        std::vector<std::string> args = cliArgs(dir, false);
        args.insert(args.end(), flag.begin(), flag.end());
        const pid_t pid = spawn(args, dir + "/stderr.txt");
        ASSERT_GT(pid, 0);
        int status = 0;
        waitpid(pid, &status, 0);
        ASSERT_TRUE(WIFEXITED(status)) << flag[0];
        EXPECT_EQ(WEXITSTATUS(status), 2) << flag[0];
        const std::string err = readFile(dir + "/stderr.txt");
        EXPECT_NE(err.find(flag[0]), std::string::npos) << err;
        EXPECT_NE(err.find("--threads"), std::string::npos) << err;
        EXPECT_NE(err.find("--batch-evals"), std::string::npos) << err;
        for (const char *f : {"/out_records.csv", "/out_front.csv",
                              "/out_trace.csv", "/out_faults.csv",
                              "/ck.json"})
            EXPECT_FALSE(fileExists(dir + f)) << flag[0] << " wrote " << f;
    }
}

// ---------------------------------------------------------------
// Scoped shutdown installation (in-process, no forking): install /
// restore is refcounted, signals fan out to registered job tokens,
// and teardown re-arms so the process can install again.
// ---------------------------------------------------------------

#include "common/shutdown.hh"

namespace common = unico::common;

namespace {

/** Current SIGTERM disposition (handler pointer) of this process. */
void (*sigtermHandler())(int)
{
    struct sigaction current = {};
    sigaction(SIGTERM, nullptr, &current);
    return current.sa_handler;
}

} // namespace

TEST(Shutdown, ScopedInstallIsRefcountedAndRestoresHandlers)
{
    void (*const before)(int) = sigtermHandler();
    {
        common::ShutdownScope outer;
        void (*const installed)(int) = sigtermHandler();
        EXPECT_NE(installed, before) << "scope must install a handler";
        {
            // Nested scope: shares the installation, and its exit
            // must NOT restore while the outer scope is live.
            common::ShutdownScope inner;
            EXPECT_EQ(sigtermHandler(), installed);
        }
        EXPECT_EQ(sigtermHandler(), installed);
    }
    EXPECT_EQ(sigtermHandler(), before)
        << "last scope must restore the previous disposition";
    EXPECT_FALSE(common::shutdownRequested());
}

TEST(Shutdown, SignalFansOutToRegisteredTokensAndTeardownRearms)
{
    {
        common::ShutdownScope scope;
        common::CancelToken before_signal, after_signal;
        ASSERT_TRUE(common::registerShutdownToken(before_signal));
        EXPECT_EQ(common::shutdownFanoutSize(), 1u);

        // One graceful signal: handled, fanned out, not fatal.
        ASSERT_EQ(raise(SIGTERM), 0);
        EXPECT_TRUE(common::shutdownRequested());
        EXPECT_EQ(common::shutdownSignal(), SIGTERM);
        EXPECT_TRUE(before_signal.cancelled());
        EXPECT_EQ(before_signal.reason(),
                  common::CancelReason::Signal);

        // Late registration still observes the shutdown.
        ASSERT_TRUE(common::registerShutdownToken(after_signal));
        EXPECT_TRUE(after_signal.cancelled());

        common::unregisterShutdownToken(before_signal);
        common::unregisterShutdownToken(after_signal);
        // Unregistration is idempotent.
        common::unregisterShutdownToken(before_signal);
        EXPECT_EQ(common::shutdownFanoutSize(), 0u);

        common::clearShutdownRequest();
        EXPECT_FALSE(common::shutdownRequested());
    }

    // Teardown re-armed the process-wide token, so a fresh scope
    // starts from a clean slate and can be signalled again.
    {
        common::ShutdownScope again;
        EXPECT_FALSE(common::shutdownRequested());
        ASSERT_EQ(raise(SIGTERM), 0);
        EXPECT_TRUE(common::shutdownRequested());
        common::clearShutdownRequest();
    }
    EXPECT_FALSE(common::shutdownRequested());
}

#endif // !_WIN32
