//===- trace/TraceJson.cpp - Chrome trace-event JSON export ----------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Both writers here are driven by tracekind::Table (trace/TraceEvent.h):
// an event's `args` object and each kind's schema branch are rendered from
// the kind's row, so no kind is named in this file.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceJson.h"

#include <cinttypes>
#include <cstdio>

using namespace aoci;

std::string aoci::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (const char Ch : S) {
    switch (Ch) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(Ch) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", Ch);
        Out += Buf;
      } else {
        Out += Ch;
      }
    }
  }
  return Out;
}

namespace {

/// The named `args` object of \p E, rendered from its tracekind row.
void writeArgs(std::ostream &OS, const TraceSink &Sink, const TraceEvent &E) {
  // Indexed by tracekind::Slot: the integer slots, then X..Z.
  const int64_t Ints[] = {E.Method, E.Thread, E.A, E.B, E.C, E.D, E.E,
                          E.D == 0 ? 0 : E.C <= 1 ? 1 : 2};
  const double Reals[] = {E.X, E.Y, E.Z};
  OS << "{";
  const char *Sep = "";
  const tracekind::Spec &Row = tracekind::Table[static_cast<unsigned>(E.Kind)];
  for (const tracekind::Arg &Arg : Row.args()) {
    const int64_t V = Arg.From < tracekind::X ? Ints[Arg.From] : 0;
    const auto M = static_cast<uint32_t>(V);
    if (Arg.Type == tracekind::Method && M == UINT32_MAX)
      continue;
    OS << Sep << '"' << Arg.Key << "\":";
    Sep = ",";
    switch (Arg.Type) {
    case tracekind::Method: {
      const std::string &Name = Sink.methodName(M);
      if (Name.empty())
        OS << "\"m" << M << '"';
      else
        OS << '"' << jsonEscape(Name) << '"';
      break;
    }
    case tracekind::Enum:
      OS << '"'
         << (V >= 0 && static_cast<size_t>(V) < Arg.Labels.size()
                 ? Arg.Labels[V]
                 : "<invalid>")
         << '"';
      break;
    case tracekind::Bool:
      OS << (V != 0 ? "true" : "false");
      break;
    case tracekind::Number: {
      // Fixed %.6g, so floating args serialize identically everywhere.
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.6g", Reals[Arg.From - tracekind::X]);
      OS << Buf;
      break;
    }
    case tracekind::Int:
    case tracekind::Count:
    case tracekind::SignedInt:
      OS << V;
      break;
    }
  }
  OS << "}";
}

void writeMetadata(std::ostream &OS, bool &FirstEvent, int Pid,
                   const std::string &ProcessName) {
  OS << (FirstEvent ? "" : ",\n") << "{\"name\":\"process_name\",\"ph\":\"M\","
     << "\"pid\":" << Pid << ",\"tid\":0,\"args\":{\"name\":\""
     << jsonEscape(ProcessName) << "\"}}";
  FirstEvent = false;
  for (unsigned T = 0; T != 1 + NumAosTraceTracks; ++T)
    OS << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << Pid
       << ",\"tid\":" << T << ",\"args\":{\"name\":\""
       << traceTrackName(static_cast<TraceTrack>(T)) << "\"}}";
}

void writeEvent(std::ostream &OS, const TraceSink &Sink, int Pid,
                const TraceEvent &E) {
  const bool Duration = E.Dur != 0;
  OS << ",\n{\"name\":\"" << traceEventKindName(E.Kind) << "\",\"ph\":\""
     << (Duration ? 'X' : 'i') << '"';
  if (!Duration)
    OS << ",\"s\":\"t\"";
  OS << ",\"pid\":" << Pid << ",\"tid\":" << unsigned(E.Track)
     << ",\"ts\":" << E.Cycle;
  if (Duration)
    OS << ",\"dur\":" << E.Dur;
  OS << ",\"args\":";
  writeArgs(OS, Sink, E);
  OS << "}";
}

} // namespace

void aoci::writeChromeTrace(std::ostream &OS,
                            const std::vector<TraceProcess> &Procs) {
  OS << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool FirstEvent = true;
  for (size_t Pid = 0; Pid != Procs.size(); ++Pid) {
    writeMetadata(OS, FirstEvent, static_cast<int>(Pid), Procs[Pid].Name);
    for (const TraceEvent &E : Procs[Pid].Sink->sortedEvents())
      writeEvent(OS, *Procs[Pid].Sink, static_cast<int>(Pid), E);
  }
  OS << "\n]}\n";
}

void aoci::writeChromeTrace(std::ostream &OS, const TraceSink &Sink,
                            const std::string &ProcessName) {
  writeChromeTrace(OS, {TraceProcess{&Sink, ProcessName}});
}

namespace {

/// `"a", "b"`: the body of a JSON array of the strings \p Items.
std::string quotedList(const std::vector<const char *> &Items) {
  std::string Out;
  for (const char *Item : Items)
    Out += std::string(Out.empty() ? "\"" : ", \"") + Item + '"';
  return Out;
}

/// The schema of an arg's value, by tracekind::ArgType (an Enum's lists
/// its labels).
std::string argSchema(const tracekind::Arg &Arg) {
  static const char *const ByType[] = {
      R"({ "$ref": "#/definitions/methodName" })",
      R"({ "type": "integer", "minimum": 0 })",
      R"({ "type": "integer", "minimum": 1 })",
      R"({ "type": "integer" })",
      R"({ "type": "number", "minimum": 0 })",
      R"({ "type": "boolean" })"};
  static_assert(std::size(ByType) == tracekind::Enum);
  if (Arg.Type != tracekind::Enum)
    return ByType[Arg.Type];
  return "{ \"enum\": [" +
         quotedList({Arg.Labels.begin(), Arg.Labels.end()}) + "] }";
}

} // namespace

void aoci::writeTraceSchema(std::ostream &OS) {
  std::vector<const char *> Names;
  for (const tracekind::Spec &Row : tracekind::Table)
    Names.push_back(Row.Name);
  OS << R"json({
  "$schema": "http://json-schema.org/draft-07/schema#",
  "$id": "https://aoci.invalid/trace-event.schema.json",
  "title": "AOCI Chrome trace-event export",
  "description": "Schema of the JSON emitted by `aoci trace` / `aoci grid --trace-out` / `aoci serve --trace-out`. Generated by writeTraceSchema() in src/trace/TraceJson.cpp from the kind table in src/trace/TraceEvent.h; regenerate with AOCI_UPDATE_GOLDEN=1 ./build/tests/test_trace. tools/validate_trace.jq reads the per-kind contract from this file.",
  "type": "object",
  "required": ["displayTimeUnit", "traceEvents"],
  "properties": {
    "displayTimeUnit": { "const": "ns" },
    "traceEvents": {
      "type": "array",
      "items": { "oneOf": [{ "$ref": "#/definitions/metadataEvent" }, { "$ref": "#/definitions/dataEvent" }] }
    }
  },
  "additionalProperties": false,
  "definitions": {
    "pid": { "type": "integer", "minimum": 0 },
    "tid": {
      "type": "integer", "minimum": 0, "maximum": )json"
     << NumAosTraceTracks << R"json(,
      "description": "0 = VirtualMachine, 1..)json"
     << NumAosTraceTracks << R"json( = the AosComponent tracks (see OBSERVABILITY.md)"
    },
    "cycles": {
      "type": "integer", "minimum": 0,
      "description": "Simulated cycles (Perfetto renders them as microseconds)"
    },
    "methodName": {
      "type": "string",
      "description": "Qualified method name, or m<id> when no name table was captured"
    },
    "metadataEvent": {
      "type": "object",
      "required": ["name", "ph", "pid", "tid", "args"],
      "properties": {
        "name": { "enum": ["process_name", "thread_name"] },
        "ph": { "const": "M" },
        "pid": { "$ref": "#/definitions/pid" },
        "tid": { "$ref": "#/definitions/tid" },
        "args": {
          "type": "object", "required": ["name"],
          "properties": { "name": { "type": "string" } }, "additionalProperties": false
        }
      },
      "additionalProperties": false
    },
    "dataEvent": {
      "type": "object",
      "required": ["name", "ph", "pid", "tid", "ts", "args"],
      "properties": {
        "name": { "enum": [)json"
     << quotedList(Names) << R"json(] },
        "ph": { "enum": ["i", "X"] },
        "s": { "const": "t" },
        "pid": { "$ref": "#/definitions/pid" },
        "tid": { "$ref": "#/definitions/tid" },
        "ts": { "$ref": "#/definitions/cycles" },
        "dur": { "type": "integer", "minimum": 1 },
        "args": { "type": "object" }
      },
      "additionalProperties": false,
      "allOf": [
        {
          "description": "Instant events carry thread scope; duration events carry dur",
          "oneOf": [
            { "properties": { "ph": { "const": "i" } }, "required": ["s"], "not": { "required": ["dur"] } },
            { "properties": { "ph": { "const": "X" } }, "required": ["dur"], "not": { "required": ["s"] } }
          ]
        },
        {
          "description": "One branch per event kind: its tracks and its args",
          "oneOf": [)json";
  for (const tracekind::Spec &Row : tracekind::Table) {
    std::string Tids;
    for (unsigned T = 0; T <= NumAosTraceTracks; ++T)
      if (Row.Tids & (1u << T))
        Tids += (Tids.empty() ? "" : ", ") + std::to_string(T);
    std::vector<const char *> Required;
    for (const tracekind::Arg &Arg : Row.args())
      if (!Arg.Optional)
        Required.push_back(Arg.Key);
    OS << (&Row == tracekind::Table ? "\n" : ",\n") << R"json(            {
              "properties": {
                "name": { "const": ")json"
       << Row.Name << R"json(" },
                "tid": { "enum": [)json"
       << Tids << R"json(] },
                "args": {
                  "type": "object",
                  "required": [)json"
       << quotedList(Required) << R"json(],
                  "properties": {)json";
    for (const tracekind::Arg &Arg : Row.args())
      OS << (&Arg == Row.Args ? "\n" : ",\n") << "                    \""
         << Arg.Key << "\": " << argSchema(Arg);
    OS << R"json(
                  },
                  "additionalProperties": false
                }
              }
            })json";
  }
  OS << "\n          ]\n        }\n      ]\n    }\n  }\n}\n";
}
