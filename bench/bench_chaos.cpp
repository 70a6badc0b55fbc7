/**
 * @file
 * Crash-resilience overhead sweep: forks the real co_search_cli
 * binary, SIGKILLs it K times at deterministic points mid-search,
 * resumes after every kill, and reports the wall-clock cost and the
 * re-executed-trial overhead of each kill count relative to the
 * uninterrupted run — the price of crash-consistency.
 *
 * Expected shape: outputs stay byte-identical at every K (asserted),
 * total wall time grows roughly linearly with K (each kill discards
 * at most one in-flight trial plus the partial work of the killed
 * process), and the re-executed-trial count stays <= K with the
 * default checkpoint cadence of 1.
 *
 * The sweep lands in BENCH_chaos.json (machine-readable, uploaded by
 * CI next to BENCH_micro.json) in addition to the console table and
 * the optional --csv file.
 *
 * Usage: bench_chaos [--kills "0,1,2,4,8"] [--iters N] [--batch N]
 *                    [--bmax B] [--seed S] [--csv out.csv]
 *                    [--json BENCH_chaos.json]
 */

#if defined(_WIN32)

#include <cstdio>
int
main()
{
    std::puts("bench_chaos: POSIX-only (fork/exec/SIGKILL)");
    return 0;
}

#else

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"

#ifndef UNICO_CLI_PATH
#define UNICO_CLI_PATH "./examples/co_search_cli"
#endif

namespace {

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
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
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

pid_t
spawn(const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    for (const auto &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    // Flush before fork: the child would otherwise replay the
    // parent's buffered output when freopen flushes the stream.
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
        std::freopen("/dev/null", "w", stdout);
        execv(argv[0], argv.data());
        _exit(127);
    }
    return pid;
}

/** Run to completion or SIGKILL after delay_ms; true = killed. */
bool
runMaybeKill(const std::vector<std::string> &args, int delay_ms,
             int &exit_code)
{
    const pid_t pid = spawn(args);
    int status = 0;
    if (delay_ms >= 0) {
        for (int waited = 0; waited < delay_ms; ++waited) {
            if (waitpid(pid, &status, WNOHANG) == pid) {
                exit_code =
                    WIFEXITED(status) ? WEXITSTATUS(status) : -1;
                return false;
            }
            usleep(1000);
        }
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
        return true;
    }
    waitpid(pid, &status, 0);
    exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return false;
}

std::vector<int>
parseIntList(const std::string &csv)
{
    std::vector<int> out;
    std::istringstream iss(csv);
    std::string tok;
    while (std::getline(iss, tok, ','))
        out.push_back(std::atoi(tok.c_str()));
    return out;
}

/** Completed trials recorded in the newest valid checkpoint. */
int
completedTrials(const std::string &ck_path)
{
    // Cheap extraction (the CRC is validated by the CLI itself):
    // find the "completedIterations" key in the JSON text.
    const std::string text = readFile(ck_path);
    const auto pos = text.find("\"completedIterations\"");
    if (pos == std::string::npos)
        return 0;
    return std::atoi(text.c_str() + text.find(':', pos) + 1);
}

} // namespace

int
main(int argc, char **argv)
{
    const unico::common::CliArgs args(argc, argv);
    const std::string iters =
        std::to_string(args.getInt("iters", 10));
    const std::string batch =
        std::to_string(args.getInt("batch", 16));
    const std::string bmax = std::to_string(args.getInt("bmax", 400));
    const std::string seed = std::to_string(args.getInt("seed", 3));
    const std::vector<int> kill_counts =
        parseIntList(args.getString("kills", "0,1,2,4,8"));

    const std::string dir = "/tmp/unico_bench_chaos";
    mkdir(dir.c_str(), 0755);
    auto cli = [&](const std::string &tag, bool resume) {
        std::vector<std::string> a = {
            UNICO_CLI_PATH, "resnet",
            "--batch",      batch,
            "--iters",      iters,
            "--bmax",       bmax,
            "--seed",       seed,
            "--checkpoint", dir + "/" + tag + ".json",
            "--csv-prefix", dir + "/" + tag,
        };
        if (resume)
            a.push_back("--resume");
        return a;
    };
    auto cleanup = [&](const std::string &tag) {
        for (const char *suffix :
             {".json", ".json.1", ".json.2", ".json.tmp",
              "_records.csv", "_front.csv", "_trace.csv",
              "_cache.csv", "_faults.csv"})
            std::remove((dir + "/" + tag + suffix).c_str());
    };

    // Reference: uninterrupted run.
    cleanup("base");
    int code = 0;
    const auto t0 = std::chrono::steady_clock::now();
    runMaybeKill(cli("base", false), -1, code);
    const double base_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (code != 0) {
        std::cerr << "baseline run failed (" << code << ")\n";
        return 1;
    }
    const std::string base_records =
        readFile(dir + "/base_records.csv");
    const int total_trials = completedTrials(dir + "/base.json");

    unico::common::Json bench_json = unico::common::Json::array();

    std::ostringstream csv;
    csv << "kills,runs,wall_ms,overhead_x,replayed_trials,"
           "identical\n";
    std::printf("Master-kill sweep (crash-consistency overhead)\n");
    std::printf("%6s %6s %10s %10s %9s %10s\n", "kills", "runs",
                "wall(ms)", "overhead", "replayed", "identical");

    for (const int target_kills : kill_counts) {
        std::string tag = "k";
        tag += std::to_string(target_kills);
        cleanup(tag);
        Lcg rng(0x5eed0000ULL + target_kills);
        int kills = 0, runs = 0, replayed = 0;
        int prev_completed = 0;
        const auto start = std::chrono::steady_clock::now();
        for (;;) {
            const bool resume =
                fileExists(dir + "/" + tag + ".json") ||
                fileExists(dir + "/" + tag + ".json.1");
            const int delay =
                kills < target_kills
                    ? 5 + static_cast<int>(rng.next() % 150)
                    : -1;
            ++runs;
            const bool killed =
                runMaybeKill(cli(tag, resume), delay, code);
            if (killed) {
                ++kills;
                // Trials finished by the killed process but not yet
                // on disk will be re-executed by the next run.
                const int now = fileExists(dir + "/" + tag + ".json")
                                    ? completedTrials(dir + "/" +
                                                      tag + ".json")
                                    : 0;
                if (now < prev_completed)
                    replayed += prev_completed - now;
                prev_completed = now;
                continue;
            }
            if (code != 0) {
                std::cerr << tag << ": run failed (" << code << ")\n";
                return 1;
            }
            break;
        }
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        const bool identical =
            readFile(dir + "/" + tag + "_records.csv") ==
            base_records;
        if (!identical) {
            std::cerr << tag
                      << ": records diverged from baseline\n";
            return 1;
        }
        std::printf("%6d %6d %10.1f %9.2fx %9d %10s\n", kills, runs,
                    wall_ms, wall_ms / base_ms, replayed,
                    identical ? "yes" : "NO");
        csv << kills << ',' << runs << ',' << wall_ms << ','
            << wall_ms / base_ms << ',' << replayed << ','
            << (identical ? 1 : 0) << "\n";
        {
            auto row = unico::common::Json::object();
            row["name"] =
                "chaos/master_kills/" + std::to_string(target_kills);
            row["run_type"] = "iteration";
            row["kills"] = kills;
            row["runs"] = runs;
            row["real_time"] = wall_ms;
            row["time_unit"] = "ms";
            row["overhead_x"] = wall_ms / base_ms;
            row["replayed_trials"] = replayed;
            row["identical"] = identical;
            bench_json.push(std::move(row));
        }
        cleanup(tag);
    }
    std::printf("(baseline %.1f ms, %d trials)\n", base_ms,
                total_trials);

    cleanup("base");

    // Machine-readable output next to BENCH_micro.json; CI uploads it
    // so the perf trajectory tracks robustness overhead over time.
    const std::string json_out =
        args.getString("json", "BENCH_chaos.json");
    if (!json_out.empty()) {
        auto doc = unico::common::Json::object();
        auto ctx = unico::common::Json::object();
        ctx["executable"] = "bench_chaos";
        ctx["baseline_ms"] = base_ms;
        ctx["baseline_trials"] = total_trials;
        ctx["iters"] = std::atoi(iters.c_str());
        ctx["batch"] = std::atoi(batch.c_str());
        ctx["seed"] = std::atoi(seed.c_str());
        doc["context"] = std::move(ctx);
        doc["benchmarks"] = std::move(bench_json);
        std::ofstream f(json_out);
        f << doc.dump(2) << "\n";
        std::cout << "json written to " << json_out << "\n";
    }

    const std::string out = args.getString("csv", "");
    if (!out.empty()) {
        std::ofstream f(out);
        f << csv.str();
        std::cout << "csv written to " << out << "\n";
    }
    return 0;
}

#endif // !_WIN32
