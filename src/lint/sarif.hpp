// SARIF 2.1.0 emission and structural validation.
//
// SARIF (Static Analysis Results Interchange Format, OASIS) is the
// interchange format CI code-scanning surfaces ingest. write_sarif
// produces a minimal, spec-conformant log: one run, the tool's rule
// catalog (the rule ids actually fired, sorted, each with its one-line
// description), one result per finding with level, message, location, and
// a partial fingerprint for result matching across runs. dfw-lint's and
// dfw-fleet's renderers only build the results. Like the JSON renderer it
// is a pure function of its input — no timestamps, no absolute paths — so
// output is byte-deterministic across runs and thread counts.
//
// validate_sarif is the in-repo structural checker (the
// validate_chrome_trace pattern): it parses the text with the obs JSON
// DOM and verifies the invariants CI consumers rely on, returning every
// problem found rather than stopping at the first.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "lint/engine.hpp"

namespace dfw::lint {

/// One SARIF result: a finding of rule `rule_id` in the artifact `uri`.
struct SarifResult {
  std::string rule_id;
  std::string level;  ///< error, warning, note or none
  std::string text;
  std::string uri;
  std::size_t line = 0;  ///< 1-based start line; 0 = no region
  std::string fingerprint;
};

/// Writes a SARIF 2.1.0 log of one run of the tool named `tool`. The rule
/// catalog holds the results' rule ids, sorted and deduplicated, each with
/// its one-line description (the id itself when it has none), and each
/// result points into it by ruleIndex. An unsuccessful run says so and
/// carries "partial result: <failure>" as an error notification.
std::string write_sarif(std::string_view tool,
                        const std::vector<SarifResult>& results,
                        bool successful, std::string_view failure);

/// Renders the report as a SARIF 2.1.0 log (single run).
std::string render_sarif(const LintInput& input, const LintReport& report);

/// Outcome of validate_sarif: ok iff problems is empty.
struct SarifValidation {
  bool ok = true;
  std::vector<std::string> problems;
};

/// Structurally validates SARIF text: well-formed JSON; version "2.1.0";
/// a nonempty runs array; each run carrying tool.driver.name and a
/// results array; each result carrying a ruleId known to the driver's
/// rule catalog, a valid level, a message with text, and 1-based line
/// numbers when regions are present. Never throws on malformed input —
/// problems are reported in the result.
SarifValidation validate_sarif(std::string_view text);

}  // namespace dfw::lint
