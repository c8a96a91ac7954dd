// Umbrella header: the whole dfw public API in one include.
//
// Fine-grained headers remain the recommended way to take dependencies
// from library code; this header is for applications and exploratory use.

#pragma once

#include "adapters/cisco.hpp"     // IWYU pragma: export
#include "adapters/emit.hpp"      // IWYU pragma: export
#include "adapters/iptables.hpp"  // IWYU pragma: export
#include "analysis/anomaly.hpp"   // IWYU pragma: export
#include "analysis/policy_analysis.hpp"  // IWYU pragma: export
#include "analysis/property.hpp"  // IWYU pragma: export
#include "bdd/bdd.hpp"            // IWYU pragma: export
#include "bdd/packet_encode.hpp"  // IWYU pragma: export
#include "diverse/discrepancy.hpp"  // IWYU pragma: export
#include "diverse/resolve.hpp"    // IWYU pragma: export
#include "diverse/workflow.hpp"   // IWYU pragma: export
#include "engine/classifier.hpp"  // IWYU pragma: export
#include "engine/trace.hpp"       // IWYU pragma: export
#include "fdd/builder.hpp"        // IWYU pragma: export
#include "fdd/compare.hpp"        // IWYU pragma: export
#include "fdd/construct.hpp"      // IWYU pragma: export
#include "fdd/dot.hpp"            // IWYU pragma: export
#include "fdd/fdd.hpp"            // IWYU pragma: export
#include "fdd/reduce.hpp"         // IWYU pragma: export
#include "fdd/shape.hpp"          // IWYU pragma: export
#include "fdd/simplify.hpp"       // IWYU pragma: export
#include "fdd/stats.hpp"          // IWYU pragma: export
#include "fw/format.hpp"          // IWYU pragma: export
#include "fw/parser.hpp"          // IWYU pragma: export
#include "fw/permute.hpp"         // IWYU pragma: export
#include "fw/policy.hpp"          // IWYU pragma: export
#include "gen/generate.hpp"       // IWYU pragma: export
#include "gen/redundancy.hpp"     // IWYU pragma: export
#include "impact/impact.hpp"      // IWYU pragma: export
#include "impact/rule_diff.hpp"   // IWYU pragma: export
#include "net/prefix.hpp"         // IWYU pragma: export
#include "query/query.hpp"        // IWYU pragma: export
#include "rt/executor.hpp"        // IWYU pragma: export
#include "rt/parallel.hpp"        // IWYU pragma: export
#include "synth/mutate.hpp"       // IWYU pragma: export
#include "synth/synth.hpp"        // IWYU pragma: export
