//===- trace/TraceJson.h - Chrome trace-event JSON export --------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders TraceSink streams as Chrome trace-event JSON ("JSON Object
/// Format": one {"traceEvents": [...]} object), which Perfetto and
/// chrome://tracing load directly. One run becomes one process (pid);
/// track 0 ("VirtualMachine") and tracks 1..6 (the AosComponents) become
/// that process's named threads, so Figure 6's overhead breakdown reads
/// as a set of timeline tracks. `ts` is the simulated cycle (Perfetto
/// will label it microseconds; OBSERVABILITY.md states the unit mapping).
/// Each event's named `args` follow its kind's row in tracekind::Table
/// (trace/TraceEvent.h), as does the JSON Schema writeTraceSchema() emits.
///
/// Output is byte-deterministic: metadata first (pid, then tid order),
/// then every event stable-sorted by (cycle, seq), with fixed integer and
/// %.6g floating formatting. The grid exporter takes runs in plan order,
/// so serial and --jobs N grids serialize identical bytes.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_TRACE_TRACEJSON_H
#define AOCI_TRACE_TRACEJSON_H

#include "trace/TraceSink.h"

#include <ostream>
#include <string>
#include <vector>

namespace aoci {

/// One traced run in a multi-process export: a sink plus the
/// `process_name` Perfetto shows for it (e.g. "compress/ContextSensitive").
struct TraceProcess {
  const TraceSink *Sink = nullptr;
  std::string Name;
};

/// Writes the runs in \p Procs (pid = index, in the given order) as one
/// Chrome trace-event JSON object. Deterministic byte-for-byte for a
/// given sequence of (sink contents, name).
void writeChromeTrace(std::ostream &OS, const std::vector<TraceProcess> &Procs);

/// Single-run convenience wrapper (pid 0).
void writeChromeTrace(std::ostream &OS, const TraceSink &Sink,
                      const std::string &ProcessName);

/// Writes the JSON Schema (draft-07) of writeChromeTrace()'s output: the
/// envelope plus, generated from tracekind::Table, one branch per kind
/// with its tids and typed args. docs/trace-event.schema.json is the
/// checked-in copy, which tools/validate_trace.jq reads.
void writeTraceSchema(std::ostream &OS);

/// JSON-escapes \p S (quotes, backslashes, control characters).
std::string jsonEscape(const std::string &S);

} // namespace aoci

#endif // AOCI_TRACE_TRACEJSON_H
