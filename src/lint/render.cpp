#include "lint/render.hpp"

#include "obs/json.hpp"

namespace dfw::lint {
namespace {

std::string witness_text(const LintInput& input, const Witness& w) {
  std::string out =
      "witness: " + format_class(input.policy->schema(), w.conjuncts);
  if (w.observed.has_value()) {
    out += " -> " + input.decisions->name(*w.observed);
  } else {
    out += " -> (no rule matches)";
  }
  if (w.expected.has_value()) {
    out += " (required " + input.decisions->name(*w.expected) + ")";
  }
  return out;
}

}  // namespace

std::string render_text(const LintInput& input, const LintReport& report) {
  std::string out;
  for (const Diagnostic& d : report.diagnostics) {
    out += input.source_name;
    if (d.line != 0) {
      out += ":";
      out += std::to_string(d.line);
    }
    out += ": ";
    out += to_string(d.severity);
    out += ": [" + d.check_id + "] " + d.message + "\n";
    if (d.witness.has_value()) {
      out += "    " + witness_text(input, *d.witness) + "\n";
    }
  }
  if (!report.complete) {
    out += "PARTIAL: " + report.message +
           " — findings below this point may be missing\n";
  }
  out += std::to_string(report.count(Severity::kError)) + " error(s), " +
         std::to_string(report.count(Severity::kWarning)) + " warning(s), " +
         std::to_string(report.count(Severity::kNote)) + " note(s)\n";
  return out;
}

std::string render_json(const LintInput& input, const LintReport& report) {
  std::string out = "{";
  out += "\"version\":1,";
  out += "\"source\":" + json::quote(input.source_name) + ",";
  out += std::string("\"complete\":") +
         (report.complete ? "true" : "false") + ",";
  out += "\"status\":" + json::quote(to_string(report.status)) + ",";
  out += "\"message\":" + json::quote(report.message) + ",";
  out += "\"passes\":[";
  for (std::size_t i = 0; i < report.passes_run.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    out += json::quote(report.passes_run[i]);
  }
  out += "],";
  out += "\"counts\":{\"error\":" +
         std::to_string(report.count(Severity::kError)) +
         ",\"warning\":" + std::to_string(report.count(Severity::kWarning)) +
         ",\"note\":" + std::to_string(report.count(Severity::kNote)) + "},";
  out += "\"diagnostics\":[";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    if (i != 0) {
      out += ",";
    }
    out += "{";
    out += "\"check\":" + json::quote(d.check_id) + ",";
    out += "\"severity\":" + json::quote(to_string(d.severity)) + ",";
    if (d.rule != kNoRule) {
      out += "\"rule\":" + std::to_string(d.rule) + ",";
    }
    if (d.related_rule != kNoRule) {
      out += "\"related_rule\":" + std::to_string(d.related_rule) + ",";
    }
    if (d.line != 0) {
      out += "\"line\":" + std::to_string(d.line) + ",";
    }
    out += "\"message\":" + json::quote(d.message) + ",";
    if (d.witness.has_value()) {
      const Witness& w = *d.witness;
      out += "\"witness\":{";
      out += "\"class\":" +
             json::quote(format_class(input.policy->schema(), w.conjuncts)) + ",";
      // Packet values are emitted as strings: Value is 64-bit and JSON
      // numbers are not reliably lossless past 2^53.
      out += "\"packet\":[";
      const Packet packet = witness_packet(w);
      for (std::size_t f = 0; f < packet.size(); ++f) {
        if (f != 0) {
          out += ",";
        }
        out += json::quote(std::to_string(packet[f]));
      }
      out += "]";
      if (w.observed.has_value()) {
        out += ",\"observed\":" + json::quote(input.decisions->name(*w.observed));
      }
      if (w.expected.has_value()) {
        out += ",\"expected\":" + json::quote(input.decisions->name(*w.expected));
      }
      out += "},";
    }
    out += "\"fingerprint\":" + json::quote(d.fingerprint);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace dfw::lint
