/**
 * @file
 * Multi-tenant co-search job server.
 *
 * Serves the core::JobManager over the minimal HTTP/JSON control
 * plane in serve::JobServer:
 *
 *   co_search_server [--listen HOST:PORT] [--port-file PATH] \
 *                    [--max-concurrent N] [--max-queued N] \
 *                    [--cache-mb MB] [--no-cache]
 *
 * Jobs are submitted as JSON documents using the co_search_cli flag
 * vocabulary (see core/job_manager.hh); every job runs through the
 * same stepped driver, so a job served here writes byte-identical
 * records/front/trace CSVs and checkpoints to the same config run
 * through the CLI. All jobs share one evaluation cache (read-mostly,
 * byte-neutral — sharing changes wall-clock time, never results).
 *
 * Shutdown: SIGINT/SIGTERM fans out to every live job's CancelToken;
 * each job drains at its next cooperative boundary and persists a
 * final checkpoint. The server then refuses new submits, waits for
 * every job to reach a terminal state, and exits with the resumable
 * status code 75 — same contract as an interrupted CLI run.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "common/cli.hh"
#include "common/shutdown.hh"
#include "core/job_manager.hh"
#include "serve/server.hh"

using namespace unico;

namespace {

int
usage()
{
    std::cout
        << "usage: co_search_server [--listen HOST:PORT]\n"
           "  [--port-file PATH] [--max-concurrent N] [--max-queued N]\n"
           "  [--cache-mb MB] [--no-cache]\n"
           "\n"
           "Submit jobs as JSON (co_search_cli vocabulary), e.g.:\n"
           "  curl -s http://127.0.0.1:7780/jobs -d \\\n"
           "    '{\"model\":\"resnet18\",\"algo\":\"unico\",\"iters\":8,"
           "\"seed\":1,\"csv_prefix\":\"/tmp/job1\"}'\n"
           "  curl -sN http://127.0.0.1:7780/jobs/1/events\n"
           "  curl -s -X POST http://127.0.0.1:7780/jobs/1/cancel\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliArgs args(argc, argv);
    if (args.has("help"))
        return usage();

    std::int64_t cache_mb = 0, max_concurrent = 0, max_queued = 0;
    try {
        cache_mb = args.getInt("cache-mb", 64);
        max_concurrent = args.getInt("max-concurrent", 2);
        max_queued = args.getInt("max-queued", 16);
    } catch (const std::invalid_argument &e) {
        std::cerr << "error: " << e.what() << "\n";
        return usage();
    }
    accel::EvalCache cache(
        args.has("no-cache") || cache_mb <= 0
            ? 0
            : static_cast<std::size_t>(cache_mb) * 1024 * 1024);

    core::JobManagerConfig mgr_cfg;
    mgr_cfg.maxConcurrent = static_cast<std::size_t>(max_concurrent);
    mgr_cfg.maxQueued = static_cast<std::size_t>(max_queued);
    if (!args.has("no-cache") && cache_mb > 0)
        mgr_cfg.sharedCache = &cache;

    // Scoped handler install + per-job fan-out: one SIGINT cancels
    // every live job's token, and each job drains to a checkpoint.
    common::ShutdownScope shutdown_scope;

    core::JobManager manager(mgr_cfg);

    serve::JobServerConfig srv_cfg;
    srv_cfg.addr = args.getString("listen", "127.0.0.1:0");
    serve::JobServer server(manager, srv_cfg);
    std::string error;
    if (!server.start(&error)) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }
    std::cout << "co_search_server listening on port " << server.port()
              << " (max-concurrent=" << mgr_cfg.maxConcurrent
              << ", max-queued=" << mgr_cfg.maxQueued << ")\n";
    std::cout.flush();

    // Port file last, after the listener is live: watchers treat its
    // existence as "ready to accept".
    const std::string port_file = args.getString("port-file", "");
    if (!port_file.empty()) {
        std::FILE *f = std::fopen(port_file.c_str(), "w");
        if (f == nullptr) {
            std::cerr << "error: cannot write " << port_file << "\n";
            return 1;
        }
        std::fprintf(f, "%d\n", server.port());
        std::fclose(f);
    }

    while (!common::shutdownRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::cout << "shutdown signal received; draining jobs...\n";
    std::cout.flush();

    // Fan-out has already cancelled running jobs; shutdown() also
    // refuses new submits and cancels anything still queued. Then
    // wait for every job to reach a terminal state — running jobs
    // finish their current boundary and write a final checkpoint.
    manager.shutdown();
    for (const auto &st : manager.list())
        manager.wait(st.id);
    server.stop();

    std::size_t drained = 0;
    for (const auto &st : manager.list()) {
        std::cout << "job " << st.id << ": "
                  << core::toString(st.state)
                  << (st.error.empty() ? "" : " (" + st.error + ")")
                  << "\n";
        ++drained;
    }
    std::cout << "drained " << drained << " job(s); exiting resumable\n";
    return common::kExitResumable;
}
