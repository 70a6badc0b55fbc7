/**
 * @file
 * Multi-tenant job core + HTTP front-end tests.
 *
 * In-process: typed submit rejection, JSON spec parsing, the
 * replayable event log, pause/resume, and the two isolation
 * contracts — (a) two jobs running concurrently (sharing one eval
 * cache) write byte-identical records/front/trace CSVs to the same
 * configs run serially and uncached through the plain driver, and
 * (b) cancelling one job mid-run does not perturb its neighbour.
 *
 * End-to-end: forks the real co_search_server binary, drives it over
 * raw HTTP, asserts a served job is byte-identical (CSVs + final
 * checkpoint) to the same config through co_search_cli, and that
 * SIGINT drains every job to a valid checkpoint and exits with the
 * resumable status code 75.
 */

#include <gtest/gtest.h>

#if defined(_WIN32)

TEST(Serve, SkippedOnWindows) { GTEST_SKIP(); }

#else

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/io.hh"
#include "common/json.hh"
#include "core/job_manager.hh"
#include "core/report.hh"
#include "serve/socket.hh"
#include "workload/model_zoo.hh"

using namespace unico;

namespace {

const char *const kServer = UNICO_SERVER_PATH;
const char *const kCli = UNICO_CLI_PATH;

std::string
makeTempDir(const std::string &tag)
{
    std::string tmpl = "/tmp/unico_serve_" + tag + "_XXXXXX";
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

/** The small search config every scenario uses unless noted. */
core::RunSpec
smallSpec(std::uint64_t seed, const std::string &csv_prefix)
{
    core::RunSpec spec;
    spec.models = {"resnet"};
    spec.algo = "unico";
    spec.batch = 8;
    spec.iters = 4;
    spec.bmax = 120;
    spec.seed = seed;
    spec.csvPrefix = csv_prefix;
    return spec;
}

/**
 * Serial, uncached reference run of @p spec through the plain driver
 * + report writers — the pre-manager code path the byte-identity
 * contract is pinned against.
 */
void
referenceRun(const core::RunSpec &spec)
{
    std::vector<workload::Network> nets;
    for (const auto &m : spec.models)
        nets.push_back(workload::makeNetwork(m));
    const core::BackendOptions opt = core::backendOptions(spec);
    const auto env =
        core::makeBackendEnv(spec.backend, std::move(nets), opt);

    core::DriverConfig cfg = core::driverConfigForAlgo(spec.algo);
    cfg.batchSize = spec.batch;
    cfg.maxIter = spec.iters;
    cfg.sh.bMax = spec.bmax;
    cfg.seed = spec.seed;
    cfg.realThreads = spec.threads;
    core::CoOptimizer driver(*env, cfg);
    core::CoSearchResult result = driver.run();

    ASSERT_TRUE(core::writeRecordsCsv(
        result, *env, spec.csvPrefix + "_records.csv"));
    ASSERT_TRUE(core::writeFrontCsv(result, *env,
                                    spec.csvPrefix + "_front.csv"));
    ASSERT_TRUE(
        core::writeTraceCsv(result, spec.csvPrefix + "_trace.csv"));
}

void
expectSameCsvs(const std::string &ref_prefix,
               const std::string &got_prefix)
{
    for (const char *f : {"_records.csv", "_front.csv", "_trace.csv"})
        EXPECT_EQ(readFile(ref_prefix + f), readFile(got_prefix + f))
            << "divergent output: " << f;
}

/** Poll a job until @p pred on its status holds (or time out). */
template <typename Pred>
core::JobStatus
awaitStatus(core::JobManager &mgr, std::uint64_t id, Pred pred,
            double wait_seconds = 60.0)
{
    core::JobStatus last;
    for (int i = 0; i < static_cast<int>(wait_seconds * 100); ++i) {
        const auto st = mgr.status(id);
        EXPECT_TRUE(st.has_value());
        if (!st)
            return last;
        last = *st;
        if (pred(last))
            return last;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "timeout waiting on job " << id << " (state "
                  << core::toString(last.state) << ")";
    return last;
}

} // namespace

TEST(RunSpecJson, ParsesScalarsAndLists)
{
    const auto doc = common::Json::parse(
        "{\"name\":\"n1\",\"model\":\"resnet\",\"algo\":\"sh\","
        "\"iters\":3,\"seed\":9,\"csv_prefix\":\"/tmp/x\"}");
    const core::RunSpec spec = core::runSpecFromJson(doc);
    EXPECT_EQ(spec.name, "n1");
    ASSERT_EQ(spec.models.size(), 1u);
    EXPECT_EQ(spec.models[0], "resnet");
    EXPECT_EQ(spec.algo, "sh");
    EXPECT_EQ(spec.iters, 3);
    EXPECT_EQ(spec.seed, 9u);

    const auto multi = common::Json::parse(
        "{\"models\":[\"resnet\",\"bert\"],\"workloads\":[\"w.csv\"]}");
    const core::RunSpec spec2 = core::runSpecFromJson(multi);
    EXPECT_EQ(spec2.models.size(), 2u);
    EXPECT_EQ(spec2.workloads.size(), 1u);

    // Round trip: toJson -> fromJson preserves the spec fields.
    const core::RunSpec spec3 =
        core::runSpecFromJson(core::toJson(spec));
    EXPECT_EQ(spec3.models, spec.models);
    EXPECT_EQ(spec3.algo, spec.algo);
    EXPECT_EQ(spec3.iters, spec.iters);
    EXPECT_EQ(spec3.seed, spec.seed);
}

TEST(RunSpecJson, RejectsUnknownFieldByName)
{
    try {
        core::runSpecFromJson(
            common::Json::parse("{\"model\":\"resnet\",\"bogus\":1}"));
        FAIL() << "unknown field accepted";
    } catch (const std::exception &e) {
        EXPECT_NE(std::string(e.what()).find("bogus"),
                  std::string::npos);
    }
}

TEST(JobManagerSubmit, TypedRejections)
{
    core::JobManagerConfig cfg;
    cfg.maxConcurrent = 1;
    cfg.maxQueued = 2;
    cfg.shutdownFanout = false;
    core::JobManager mgr(cfg);

    // BadSpec: empty workload set, unknown algorithm, bad resume.
    core::RunSpec empty;
    EXPECT_EQ(mgr.submit(empty).error, core::SubmitError::BadSpec);

    core::RunSpec bad_algo = smallSpec(1, "");
    bad_algo.algo = "bogus";
    const auto rej = mgr.submit(bad_algo);
    EXPECT_EQ(rej.error, core::SubmitError::BadSpec);
    EXPECT_NE(rej.message.find("unknown algorithm"), std::string::npos);

    core::RunSpec bad_resume = smallSpec(1, "");
    bad_resume.resume = true;
    EXPECT_EQ(mgr.submit(bad_resume).error,
              core::SubmitError::BadSpec);

    // Backend options are checked by the validate() the CLI uses.
    core::RunSpec bad_scenario = smallSpec(1, "");
    bad_scenario.scenario = "marsbase";
    EXPECT_EQ(mgr.submit(bad_scenario).error,
              core::SubmitError::BadSpec);

    // QueueFull: one long-running job occupies the single scheduler,
    // two fit in the queue, the next is rejected.
    core::RunSpec longjob = smallSpec(2, "");
    longjob.iters = 500;
    const auto running = mgr.submit(longjob);
    ASSERT_TRUE(running.ok());
    awaitStatus(mgr, running.id, [](const core::JobStatus &st) {
        return st.state == core::JobState::Running;
    });
    const auto q1 = mgr.submit(smallSpec(3, ""));
    const auto q2 = mgr.submit(smallSpec(4, ""));
    ASSERT_TRUE(q1.ok());
    ASSERT_TRUE(q2.ok());
    const auto full = mgr.submit(smallSpec(5, ""));
    EXPECT_EQ(full.error, core::SubmitError::QueueFull);

    // Cancelling a queued job is immediate and terminal.
    EXPECT_TRUE(mgr.cancel(q2.id));
    const auto q2st = mgr.status(q2.id);
    ASSERT_TRUE(q2st.has_value());
    EXPECT_EQ(q2st->state, core::JobState::Cancelled);
    EXPECT_FALSE(mgr.cancel(q2.id)) << "cancel must not re-fire";

    // ShuttingDown: no submits after shutdown().
    mgr.shutdown();
    EXPECT_EQ(mgr.submit(smallSpec(6, "")).error,
              core::SubmitError::ShuttingDown);
    // Destructor drains the cancelled jobs.
}

TEST(JobManagerIsolation, ConcurrentJobsMatchSerialByteForByte)
{
    const std::string dir = makeTempDir("conc");

    core::RunSpec spec1 = smallSpec(11, dir + "/ref1");
    core::RunSpec spec2 = smallSpec(22, dir + "/ref2");
    referenceRun(spec1);
    referenceRun(spec2);

    // Concurrent re-run of both specs under one manager, sharing one
    // evaluation cache (the references ran uncached — sharing must be
    // byte-neutral).
    accel::EvalCache cache(8 * 1024 * 1024);
    core::JobManagerConfig cfg;
    cfg.maxConcurrent = 2;
    cfg.sharedCache = &cache;
    cfg.shutdownFanout = false;
    core::JobManager mgr(cfg);

    spec1.csvPrefix = dir + "/mgr1";
    spec2.csvPrefix = dir + "/mgr2";
    const auto s1 = mgr.submit(spec1);
    const auto s2 = mgr.submit(spec2);
    ASSERT_TRUE(s1.ok());
    ASSERT_TRUE(s2.ok());

    const auto st1 = mgr.wait(s1.id);
    const auto st2 = mgr.wait(s2.id);
    ASSERT_TRUE(st1.has_value());
    ASSERT_TRUE(st2.has_value());
    EXPECT_EQ(st1->state, core::JobState::Completed);
    EXPECT_EQ(st2->state, core::JobState::Completed);

    expectSameCsvs(dir + "/ref1", dir + "/mgr1");
    expectSameCsvs(dir + "/ref2", dir + "/mgr2");

    // The cache actually was shared — both jobs hit the same table.
    EXPECT_GT(cache.stats().hits + cache.stats().misses, 0u);
}

TEST(JobManagerIsolation, CancelMidRunDoesNotPerturbSurvivor)
{
    const std::string dir = makeTempDir("cancel");

    core::RunSpec survivor_ref = smallSpec(33, dir + "/ref");
    referenceRun(survivor_ref);

    accel::EvalCache cache(8 * 1024 * 1024);
    core::JobManagerConfig cfg;
    cfg.maxConcurrent = 2;
    cfg.sharedCache = &cache;
    cfg.shutdownFanout = false;
    core::JobManager mgr(cfg);

    core::RunSpec victim = smallSpec(44, "");
    victim.iters = 500;
    victim.checkpoint = dir + "/victim_ck.json";
    const auto vs = mgr.submit(victim);
    ASSERT_TRUE(vs.ok());

    core::RunSpec survivor = survivor_ref;
    survivor.csvPrefix = dir + "/mgr";
    const auto ss = mgr.submit(survivor);
    ASSERT_TRUE(ss.ok());

    // Cancel the victim once it has really started searching.
    awaitStatus(mgr, vs.id, [](const core::JobStatus &st) {
        return st.iteration >= 1;
    });
    EXPECT_TRUE(mgr.cancel(vs.id));

    const auto vst = mgr.wait(vs.id);
    ASSERT_TRUE(vst.has_value());
    EXPECT_EQ(vst->state, core::JobState::Cancelled);
    EXPECT_TRUE(vst->interrupted);
    EXPECT_TRUE(fileExists(dir + "/victim_ck.json"))
        << "cancelled job must leave a final checkpoint";
    const auto vres = mgr.result(vs.id);
    ASSERT_TRUE(vres.has_value());
    EXPECT_TRUE(vres->interrupted);

    const auto sst = mgr.wait(ss.id);
    ASSERT_TRUE(sst.has_value());
    EXPECT_EQ(sst->state, core::JobState::Completed);
    expectSameCsvs(dir + "/ref", dir + "/mgr");
}

TEST(JobManagerLifecycle, PauseParksAndResumeContinues)
{
    core::JobManagerConfig cfg;
    cfg.maxConcurrent = 1;
    cfg.shutdownFanout = false;
    core::JobManager mgr(cfg);

    core::RunSpec spec = smallSpec(7, "");
    spec.iters = 500;
    const auto sub = mgr.submit(spec);
    ASSERT_TRUE(sub.ok());

    awaitStatus(mgr, sub.id, [](const core::JobStatus &st) {
        return st.iteration >= 1;
    });
    ASSERT_TRUE(mgr.pause(sub.id));
    const auto paused =
        awaitStatus(mgr, sub.id, [](const core::JobStatus &st) {
            return st.state == core::JobState::Paused;
        });

    // Parked: no trials complete while paused.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const auto still = mgr.status(sub.id);
    ASSERT_TRUE(still.has_value());
    EXPECT_EQ(still->state, core::JobState::Paused);
    EXPECT_EQ(still->iteration, paused.iteration);

    ASSERT_TRUE(mgr.resume(sub.id));
    awaitStatus(mgr, sub.id, [&](const core::JobStatus &st) {
        return st.iteration > paused.iteration;
    });

    // Wind the long job down; cancel is the fast path out.
    ASSERT_TRUE(mgr.cancel(sub.id));
    const auto done = mgr.wait(sub.id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, core::JobState::Cancelled);
}

TEST(JobManagerEvents, LogIsReplayableAndTyped)
{
    core::JobManagerConfig cfg;
    cfg.maxConcurrent = 1;
    cfg.shutdownFanout = false;
    core::JobManager mgr(cfg);

    const auto sub = mgr.submit(smallSpec(3, ""));
    ASSERT_TRUE(sub.ok());
    ASSERT_TRUE(mgr.wait(sub.id).has_value());

    // Full replay from zero after completion.
    const auto events = mgr.eventsSince(sub.id, 0);
    ASSERT_GE(events.size(), 3u);
    EXPECT_EQ(events.front().kind, core::ProgressKind::Started);
    EXPECT_EQ(events.back().kind, core::ProgressKind::Finished);
    int trials = 0;
    for (const auto &ev : events) {
        EXPECT_EQ(ev.job, sub.id);
        if (ev.kind == core::ProgressKind::TrialCompleted)
            ++trials;
    }
    EXPECT_EQ(trials, 4);

    // Mid-log resume yields exactly the tail; past-the-end returns
    // empty (stream exhausted) instead of blocking.
    const auto tail = mgr.eventsSince(sub.id, events.size() - 1);
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail[0].kind, core::ProgressKind::Finished);
    EXPECT_TRUE(mgr.eventsSince(sub.id, events.size()).empty());
}

// ---------------------------------------------------------------
// End-to-end: the real server binary over real HTTP.
// ---------------------------------------------------------------

namespace {

pid_t
spawn(const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (const auto &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
        std::freopen("/dev/null", "w", stdout);
        execv(argv[0], argv.data());
        _exit(127);
    }
    return pid;
}

int
awaitPortFile(const std::string &path, double wait_seconds = 30.0)
{
    for (int i = 0; i < static_cast<int>(wait_seconds * 100); ++i) {
        std::ifstream in(path);
        int port = 0;
        if (in >> port && port > 0)
            return port;
        usleep(10000);
    }
    ADD_FAILURE() << "port file never appeared: " << path;
    return -1;
}

/** Reap @p pid, SIGKILLing it if it outlives @p wait_seconds. */
int
reapWithin(pid_t pid, double wait_seconds)
{
    int status = 0;
    for (int i = 0; i < static_cast<int>(wait_seconds * 100); ++i) {
        if (waitpid(pid, &status, WNOHANG) == pid)
            return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
        usleep(10000);
    }
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    return -3;
}

/** One-shot HTTP exchange: send @p request, read to connection
 *  close, return the raw response (head + body). */
std::string
httpExchange(int port, const std::string &request,
             double wait_seconds = 120.0)
{
    std::string error;
    const int fd = serve::tcpConnect(
        "127.0.0.1:" + std::to_string(port), 10.0, &error);
    EXPECT_GE(fd, 0) << error;
    if (fd < 0)
        return {};
    EXPECT_EQ(common::writeFull(fd, request), common::IoStatus::Ok);
    std::string response;
    char buf[4096];
    for (;;) {
        const common::IoStatus st =
            common::waitReadable(fd, wait_seconds);
        if (st != common::IoStatus::Ok)
            break;
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n > 0) {
            response.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EINTR))
            continue;
        break; // closed or hard error: response is complete
    }
    ::close(fd);
    return response;
}

std::string
httpGet(int port, const std::string &target,
        double wait_seconds = 120.0)
{
    return httpExchange(port,
                        "GET " + target +
                            " HTTP/1.1\r\nHost: x\r\n"
                            "Connection: close\r\n\r\n",
                        wait_seconds);
}

std::string
httpPost(int port, const std::string &target, const std::string &body)
{
    return httpExchange(
        port, "POST " + target +
                  " HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                  std::to_string(body.size()) + "\r\n"
                  "Connection: close\r\n\r\n" +
                  body);
}

/** Body (bytes after the blank line) of a raw HTTP response. */
std::string
bodyOf(const std::string &response)
{
    const std::size_t sep = response.find("\r\n\r\n");
    return sep == std::string::npos ? std::string()
                                    : response.substr(sep + 4);
}

int
statusOf(const std::string &response)
{
    std::istringstream head(response);
    std::string version;
    int status = 0;
    head >> version >> status;
    return status;
}

} // namespace

TEST(ServeHttp, JobByteIdenticalToCliAndSigintDrainsTo75)
{
    const std::string dir = makeTempDir("http");

    const pid_t server = spawn({kServer, "--listen", "127.0.0.1:0",
                                "--port-file", dir + "/port",
                                "--max-concurrent", "2"});
    ASSERT_GT(server, 0);
    const int port = awaitPortFile(dir + "/port");
    ASSERT_GT(port, 0);

    EXPECT_EQ(statusOf(httpGet(port, "/healthz")), 200);
    EXPECT_EQ(statusOf(httpGet(port, "/nothing")), 404);
    EXPECT_EQ(statusOf(httpGet(port, "/jobs/99")), 404);
    EXPECT_EQ(
        statusOf(httpPost(port, "/jobs", "{\"algo\":\"bogus\"}")),
        400);

    // Submit the job the CLI comparison below re-runs.
    const std::string submit = httpPost(
        port, "/jobs",
        "{\"model\":\"resnet\",\"algo\":\"unico\",\"batch\":8,"
        "\"iters\":4,\"bmax\":120,\"seed\":5,"
        "\"csv_prefix\":\"" + dir + "/http\","
        "\"checkpoint\":\"" + dir + "/http_ck.json\"}");
    ASSERT_EQ(statusOf(submit), 202);
    const auto id = common::Json::parse(bodyOf(submit)).at("id");
    const std::string job = std::to_string(id.asInt());

    // Stream the event log to exhaustion: NDJSON, started..finished.
    const std::string stream =
        bodyOf(httpGet(port, "/jobs/" + job + "/events"));
    std::istringstream lines(stream);
    std::string line, first, last;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        const auto ev = common::Json::parse(line);
        if (first.empty())
            first = ev.at("event").asString();
        last = ev.at("event").asString();
        ++count;
    }
    EXPECT_GE(count, 3u);
    EXPECT_EQ(first, "started");
    EXPECT_EQ(last, "finished");

    // Terminal status via the control plane.
    const auto st =
        common::Json::parse(bodyOf(httpGet(port, "/jobs/" + job)));
    EXPECT_EQ(st.at("state").asString(), "completed");

    // Byte-identity: the same config through co_search_cli.
    const pid_t cli = spawn(
        {kCli, "resnet", "--algo", "unico", "--batch", "8", "--iters",
         "4", "--bmax", "120", "--seed", "5", "--csv-prefix",
         dir + "/cli", "--checkpoint", dir + "/cli_ck.json"});
    ASSERT_GT(cli, 0);
    EXPECT_EQ(reapWithin(cli, 120.0), 0);
    expectSameCsvs(dir + "/cli", dir + "/http");
    EXPECT_EQ(readFile(dir + "/cli_ck.json"),
              readFile(dir + "/http_ck.json"))
        << "served job wrote a different final checkpoint";

    // Long-running job + SIGINT: the server drains it to a valid
    // checkpoint and exits with the resumable status code.
    const std::string long_submit = httpPost(
        port, "/jobs",
        "{\"model\":\"resnet\",\"algo\":\"unico\",\"batch\":8,"
        "\"iters\":500,\"bmax\":120,\"seed\":6,"
        "\"checkpoint\":\"" + dir + "/drain_ck.json\"}");
    ASSERT_EQ(statusOf(long_submit), 202);
    const std::string long_job = std::to_string(
        common::Json::parse(bodyOf(long_submit)).at("id").asInt());
    // Started searching for real before the signal lands.
    for (int i = 0; i < 3000; ++i) {
        const auto probe = common::Json::parse(
            bodyOf(httpGet(port, "/jobs/" + long_job)));
        if (probe.at("iteration").asInt() >= 1)
            break;
        usleep(10000);
    }

    ASSERT_EQ(kill(server, SIGINT), 0);
    EXPECT_EQ(reapWithin(server, 120.0), 75)
        << "graceful server shutdown must exit resumable";
    EXPECT_TRUE(fileExists(dir + "/drain_ck.json"))
        << "drained job must leave a checkpoint";
}

TEST(ServeHttp, CancelEndpointStopsJobWithoutKillingServer)
{
    const std::string dir = makeTempDir("cancel");

    const pid_t server = spawn({kServer, "--listen", "127.0.0.1:0",
                                "--port-file", dir + "/port"});
    ASSERT_GT(server, 0);
    const int port = awaitPortFile(dir + "/port");
    ASSERT_GT(port, 0);

    const std::string submit = httpPost(
        port, "/jobs",
        "{\"model\":\"resnet\",\"algo\":\"unico\",\"batch\":8,"
        "\"iters\":500,\"bmax\":120,\"seed\":8}");
    ASSERT_EQ(statusOf(submit), 202);
    const std::string job = std::to_string(
        common::Json::parse(bodyOf(submit)).at("id").asInt());

    EXPECT_EQ(statusOf(httpPost(port, "/jobs/" + job + "/cancel", "")),
              200);
    // The stream ends (terminal state) and reports cancelled.
    bodyOf(httpGet(port, "/jobs/" + job + "/events"));
    const auto st =
        common::Json::parse(bodyOf(httpGet(port, "/jobs/" + job)));
    EXPECT_EQ(st.at("state").asString(), "cancelled");
    // Cancel on a terminal job is a typed conflict, not a success.
    EXPECT_EQ(statusOf(httpPost(port, "/jobs/" + job + "/cancel", "")),
              409);

    // Server is still healthy afterwards.
    EXPECT_EQ(statusOf(httpGet(port, "/healthz")), 200);

    ASSERT_EQ(kill(server, SIGINT), 0);
    EXPECT_EQ(reapWithin(server, 60.0), 75);
}

#endif // !_WIN32
