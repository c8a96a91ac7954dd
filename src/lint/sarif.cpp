#include "lint/sarif.hpp"

#include <algorithm>
#include <map>

#include "obs/json.hpp"

namespace dfw::lint {
namespace {

constexpr const char* kSarifVersion = "2.1.0";
constexpr const char* kSarifSchema =
    "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/"
    "sarif-schema-2.1.0.json";
constexpr const char* kFingerprintKey = "dfwFingerprint/v1";

// One-line descriptions for the rule catalog: lint's checks and the
// fleet audit's own rules. Rules not listed (adapter notes carry their
// own context) fall back to the rule id.
std::string rule_description(const std::string& id) {
  static const std::map<std::string, std::string> kDescriptions = {
      {"policy.shadowed-rule",
       "a later rule's predicate is contained in an earlier rule with a "
       "different decision"},
      {"policy.redundant-pair",
       "a later rule matches a subset of an earlier same-decision rule"},
      {"policy.generalization",
       "a later rule generalizes an earlier rule with a different decision"},
      {"policy.correlation",
       "two rules overlap without nesting and decide differently"},
      {"policy.dead-rule", "no packet ever first-matches this rule"},
      {"policy.not-comprehensive", "some packets match no rule"},
      {"policy.decision-unreachable",
       "a declared decision is assigned to no packet"},
      {"policy.redundant-rule",
       "removing this rule leaves every packet's decision unchanged"},
      {"policy.compactable", "an equivalent shorter policy exists"},
      {"rule.merge-adjacent",
       "adjacent same-decision rules differ in a single field"},
      {"property.violation", "a for-all property has a counterexample"},
      {"property.unsatisfied", "an exists property has no witness"},
      {"property.malformed", "a property lacks a required decision"},
      {"lint.unknown-pass", "the pass selection names an unknown pass"},
      {"fleet.divergence",
       "devices assign different decisions to the same traffic class"},
      {"fleet.parse-error", "the device configuration failed to parse"},
      {"fleet.device-partial",
       "the global budget cut this device's analysis short"},
      {"fleet.device-skipped",
       "the global budget was exhausted before this device started"},
  };
  const auto it = kDescriptions.find(id);
  return it != kDescriptions.end() ? it->second : id;
}

}  // namespace

std::string write_sarif(std::string_view tool,
                        const std::vector<SarifResult>& results,
                        bool successful, std::string_view failure) {
  // Rule catalog: the rule ids that fired, sorted and deduplicated so the
  // catalog (and every result's ruleIndex) is deterministic.
  std::vector<std::string> rule_ids;
  for (const SarifResult& r : results) {
    rule_ids.push_back(r.rule_id);
  }
  std::sort(rule_ids.begin(), rule_ids.end());
  rule_ids.erase(std::unique(rule_ids.begin(), rule_ids.end()),
                 rule_ids.end());
  std::map<std::string, std::size_t> rule_index;
  for (std::size_t i = 0; i < rule_ids.size(); ++i) {
    rule_index[rule_ids[i]] = i;
  }

  std::string out = "{";
  out += "\"$schema\":" + json::quote(kSarifSchema) + ",";
  out += "\"version\":" + json::quote(kSarifVersion) + ",";
  out += "\"runs\":[{";
  out += "\"tool\":{\"driver\":{";
  out += "\"name\":" + json::quote(tool) + ",";
  out += "\"informationUri\":\"https://github.com/dfw/dfw\",";
  out += "\"rules\":[";
  for (std::size_t i = 0; i < rule_ids.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    out += "{\"id\":" + json::quote(rule_ids[i]) +
           ",\"shortDescription\":{\"text\":" +
           json::quote(rule_description(rule_ids[i])) + "}}";
  }
  out += "]}},";
  // An incomplete (governed, cut short) run is surfaced the SARIF way:
  // executionSuccessful=false plus a toolExecutionNotification.
  out += "\"invocations\":[{\"executionSuccessful\":";
  out += successful ? "true" : "false";
  if (!successful) {
    std::string text = "partial result: ";
    text += failure;
    out += ",\"toolExecutionNotifications\":[{\"level\":\"error\","
           "\"message\":{\"text\":";
    out += json::quote(text);
    out += "}}]";
  }
  out += "}],";
  out += "\"columnKind\":\"unicodeCodePoints\",";
  out += "\"results\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SarifResult& r = results[i];
    if (i != 0) {
      out += ",";
    }
    out += "{";
    out += "\"ruleId\":" + json::quote(r.rule_id) + ",";
    out += "\"ruleIndex\":" + std::to_string(rule_index[r.rule_id]) + ",";
    out += "\"level\":" + json::quote(r.level) + ",";
    out += "\"message\":{\"text\":" + json::quote(r.text) + "},";
    out += "\"locations\":[{\"physicalLocation\":{";
    out += "\"artifactLocation\":{\"uri\":" + json::quote(r.uri) + "}";
    if (r.line != 0) {
      out += ",\"region\":{\"startLine\":" + std::to_string(r.line) + "}";
    }
    out += "}}],";
    out += "\"partialFingerprints\":{" + json::quote(kFingerprintKey) + ":" +
           json::quote(r.fingerprint) + "}";
    out += "}";
  }
  out += "]}]}";
  return out;
}

std::string render_sarif(const LintInput& input, const LintReport& report) {
  std::vector<SarifResult> results;
  results.reserve(report.diagnostics.size());
  for (const Diagnostic& d : report.diagnostics) {
    std::string text = d.message;
    if (d.witness.has_value()) {
      text += " [witness: " +
              format_class(input.policy->schema(), d.witness->conjuncts);
      if (d.witness->observed.has_value()) {
        text += " -> " + input.decisions->name(*d.witness->observed);
      }
      text += "]";
    }
    results.push_back({d.check_id, to_string(d.severity), std::move(text),
                       input.source_name, d.line, d.fingerprint});
  }
  return write_sarif("dfw-lint", results, report.complete, report.message);
}

SarifValidation validate_sarif(std::string_view text) {
  SarifValidation v;
  const auto problem = [&](std::string message) {
    v.ok = false;
    v.problems.push_back(std::move(message));
  };

  std::string error;
  const std::optional<json::Value> doc = json::parse(text, &error);
  if (!doc.has_value()) {
    problem("not valid JSON: " + error);
    return v;
  }
  if (!doc->is_object()) {
    problem("top level is not an object");
    return v;
  }
  const json::Value* version = doc->find("version");
  if (version == nullptr || !version->is_string() ||
      version->string != kSarifVersion) {
    problem("version is not \"2.1.0\"");
  }
  const json::Value* runs = doc->find("runs");
  if (runs == nullptr || !runs->is_array() || runs->array.empty()) {
    problem("runs is not a nonempty array");
    return v;
  }
  for (std::size_t r = 0; r < runs->array.size(); ++r) {
    const json::Value& run = runs->array[r];
    const std::string where = "runs[" + std::to_string(r) + "]";
    if (!run.is_object()) {
      problem(where + " is not an object");
      continue;
    }
    const json::Value* tool = run.find("tool");
    const json::Value* driver =
        tool != nullptr ? tool->find("driver") : nullptr;
    const json::Value* name =
        driver != nullptr ? driver->find("name") : nullptr;
    if (name == nullptr || !name->is_string() || name->string.empty()) {
      problem(where + ".tool.driver.name is missing or empty");
    }
    // Collect the rule catalog so results can be cross-checked against it.
    std::vector<std::string> rule_ids;
    if (driver != nullptr) {
      if (const json::Value* rules = driver->find("rules");
          rules != nullptr && rules->is_array()) {
        for (const json::Value& rule : rules->array) {
          const json::Value* id = rule.find("id");
          if (id == nullptr || !id->is_string()) {
            problem(where + ": rule catalog entry without a string id");
            continue;
          }
          rule_ids.push_back(id->string);
        }
      }
    }
    const json::Value* results = run.find("results");
    if (results == nullptr || !results->is_array()) {
      problem(where + ".results is not an array");
      continue;
    }
    for (std::size_t i = 0; i < results->array.size(); ++i) {
      const json::Value& result = results->array[i];
      const std::string rwhere = where + ".results[" + std::to_string(i) +
                                 "]";
      if (!result.is_object()) {
        problem(rwhere + " is not an object");
        continue;
      }
      const json::Value* rule_id = result.find("ruleId");
      if (rule_id == nullptr || !rule_id->is_string()) {
        problem(rwhere + ".ruleId is missing");
      } else if (!rule_ids.empty() &&
                 std::find(rule_ids.begin(), rule_ids.end(),
                           rule_id->string) == rule_ids.end()) {
        problem(rwhere + ".ruleId '" + rule_id->string +
                "' is not in the driver's rule catalog");
      }
      if (const json::Value* level = result.find("level");
          level != nullptr &&
          (!level->is_string() ||
           (level->string != "error" && level->string != "warning" &&
            level->string != "note" && level->string != "none"))) {
        problem(rwhere + ".level is not error/warning/note/none");
      }
      const json::Value* message = result.find("message");
      const json::Value* text_v =
          message != nullptr ? message->find("text") : nullptr;
      if (text_v == nullptr || !text_v->is_string()) {
        problem(rwhere + ".message.text is missing");
      }
      if (const json::Value* locations = result.find("locations");
          locations != nullptr && locations->is_array()) {
        for (const json::Value& loc : locations->array) {
          const json::Value* physical = loc.find("physicalLocation");
          const json::Value* region =
              physical != nullptr ? physical->find("region") : nullptr;
          const json::Value* start =
              region != nullptr ? region->find("startLine") : nullptr;
          if (start != nullptr &&
              (!start->is_number() || start->number < 1)) {
            problem(rwhere + ": region.startLine is not a positive number");
          }
        }
      }
    }
  }
  return v;
}

}  // namespace dfw::lint
