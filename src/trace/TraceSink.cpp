//===- trace/TraceSink.cpp - Per-run event sink ----------------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceSink.h"

#include "vm/Overhead.h"

#include <algorithm>

using namespace aoci;

static_assert(NumAosTraceTracks == NumAosComponents,
              "component track count must match vm/Overhead.h");

const char *aoci::traceTrackName(TraceTrack Track) {
  if (Track == TraceTrackVm)
    return "VirtualMachine";
  const unsigned Component = Track - 1;
  if (Component < NumAosComponents)
    return aosComponentName(static_cast<AosComponent>(Component));
  return "<invalid>";
}

bool aoci::parseTraceFilter(const std::string &List, uint32_t &Mask,
                            std::string &Error) {
  if (List.empty()) {
    Mask = TraceAllKinds;
    return true;
  }
  Mask = 0;
  for (size_t Pos = 0; Pos <= List.size();) {
    const size_t Comma = std::min(List.find(',', Pos), List.size());
    const std::string Token = List.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Token.empty()) {
      Error = "empty trace filter item (stray comma?) in '" + List + "'";
      return false;
    }
    const auto *Row =
        std::ranges::find(tracekind::Table, Token, &tracekind::Spec::Name);
    if (Row == std::end(tracekind::Table)) {
      Error = "unknown trace event kind '" + Token + "'";
      return false;
    }
    Mask |= traceKindBit(Row->Kind);
  }
  return true;
}

TraceEvent &TraceSink::append(TraceEventKind Kind, TraceTrack Track,
                              uint64_t Cycle) {
  if (Chunks.empty() || Chunks.back().Size == ChunkCapacity) {
    // Ring behaviour: a cap evicts whole oldest chunks, keeping the most
    // recent window of the run.
    while (MaxEvents && !Chunks.empty() &&
           NumEvents + ChunkCapacity > MaxEvents &&
           NumEvents >= Chunks.front().Size) {
      NumEvents -= Chunks.front().Size;
      Dropped += Chunks.front().Size;
      Chunks.pop_front();
    }
    Chunks.emplace_back();
    Chunks.back().Events = std::make_unique<TraceEvent[]>(ChunkCapacity);
  }
  Chunk &C = Chunks.back();
  TraceEvent &E = C.Events[C.Size++];
  ++NumEvents;
  E = TraceEvent();
  E.Kind = Kind;
  E.Track = Track;
  E.Cycle = Cycle;
  E.Seq = NextSeq++;
  return E;
}

std::vector<TraceEvent> TraceSink::sortedEvents() const {
  std::vector<TraceEvent> Events;
  Events.reserve(NumEvents);
  forEach([&Events](const TraceEvent &E) { Events.push_back(E); });
  std::stable_sort(Events.begin(), Events.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     return A.Cycle != B.Cycle ? A.Cycle < B.Cycle
                                               : A.Seq < B.Seq;
                   });
  return Events;
}

void TraceSink::clear() {
  Chunks.clear();
  NextSeq = 0;
  NumEvents = 0;
  Dropped = 0;
}

void TraceSink::adoptEvents(TraceSink &&Other) {
  Chunks = std::move(Other.Chunks);
  NextSeq = Other.NextSeq;
  NumEvents = Other.NumEvents;
  Dropped = Other.Dropped;
  if (!Other.MethodNames.empty())
    MethodNames = std::move(Other.MethodNames);
  Other.clear();
}
