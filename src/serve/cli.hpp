// The dfw_serve command-line driver, factored as a library function so
// tests exercise the full CLI — flag parsing, snapshot boot/restore,
// the stdin command loop, exit codes — in-process against string
// streams (the same pattern as lint/cli.hpp).
//
// Exit-code contract (cli_common.hpp):
//   0  clean: every command succeeded
//   1  findings: at least one swap or batch was rejected (governance,
//      admission, or exhausted self-healing)
//   2  usage or input error: bad flags, unreadable files, parse errors —
//      including a corrupt or truncated --snapshot file at boot, or one
//      whose policy is not comprehensive, which is refused with a
//      message naming the file, never served or crashed on

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dfw::serve {

/// Runs the CLI. `args` excludes argv[0]. Operator commands are read
/// from `in`; reports go to `out`, usage/errors to `err`. Returns the
/// process exit code.
int run_serve_cli(const std::vector<std::string>& args, std::istream& in,
                  std::ostream& out, std::ostream& err);

}  // namespace dfw::serve
