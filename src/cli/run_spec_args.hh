/**
 * @file
 * The command-line face of core::RunSpec: one flag per spec field
 * (--model, --backend, --batch, --fault-rate, ...), read by
 * co_search_cli and the tests. The JSON face and the validator live
 * in core/run_spec.hh; core itself never sees argv.
 */

#ifndef UNICO_CLI_RUN_SPEC_ARGS_HH
#define UNICO_CLI_RUN_SPEC_ARGS_HH

#include <string>
#include <vector>

#include "common/cli.hh"
#include "core/run_spec.hh"

namespace unico::cli {

/**
 * The RunSpec a command line describes (not validate()d). Repeated
 * --model / --workload add up; a positional argument is a workload
 * file if it contains a '.', else a zoo model. Throws
 * std::invalid_argument naming the flag for a malformed number, a
 * missing (or, on a switch, unexpected) value, or a flag that is
 * neither a spec flag nor in @p process_flags (read by the caller).
 */
core::RunSpec runSpecFromArgs(const common::CliArgs &args,
                              const std::vector<std::string>
                                  &process_flags = {});

/** RunSpec::surrogateKeep of --surrogate [--surrogate-keep F] (keep
 *  F, default SurrogateOptions::keep) and --no-surrogate (0, off),
 *  which wins over both. Throws on a malformed F. */
double surrogateKeepFromArgs(const common::CliArgs &args);

} // namespace unico::cli

#endif // UNICO_CLI_RUN_SPEC_ARGS_HH
