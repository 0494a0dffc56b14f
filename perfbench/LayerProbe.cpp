//===- perfbench/LayerProbe.cpp - Per-layer host timing ---------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "LayerProbe.h"

#include "vm/OsrDriver.h"

#include <chrono>

using namespace perfbench;
using namespace aoci;

namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

class TimedSampleSink final : public SampleSink {
public:
  TimedSampleSink(AdaptiveSystem &Aos, LayerTotals &Totals)
      : Aos(Aos), Totals(Totals) {}

  void onSample(VirtualMachine &VM, ThreadState &Thread,
                bool AtPrologue) override {
    const AosStats Before = Aos.stats();
    const Clock::time_point Start = Clock::now();
    Aos.onSample(VM, Thread, AtPrologue);
    const Clock::time_point End = Clock::now();
    const unsigned K =
        static_cast<unsigned>(classifySample(Before, Aos.stats()));
    Totals.SampleSeconds[K] += seconds(Start, End);
    ++Totals.SampleCalls[K];
  }

private:
  AdaptiveSystem &Aos;
  LayerTotals &Totals;
};

class TimedOsrDriver final : public OsrDriver {
public:
  TimedOsrDriver(OsrDriver &Inner, LayerTotals &Totals)
      : Inner(Inner), Totals(Totals) {}

  bool onStaleBackedge(VirtualMachine &VM, ThreadState &T) override {
    const Clock::time_point Start = Clock::now();
    const bool Remapped = Inner.onStaleBackedge(VM, T);
    account(Start);
    return Remapped;
  }

  void onOsrFrameReturn(VirtualMachine &VM, ThreadState &T,
                        const Frame &Done) override {
    const Clock::time_point Start = Clock::now();
    Inner.onOsrFrameReturn(VM, T, Done);
    account(Start);
  }

  bool onEvictVariant(VirtualMachine &VM, const CodeVariant &V) override {
    const Clock::time_point Start = Clock::now();
    const bool Deoptimized = Inner.onEvictVariant(VM, V);
    account(Start);
    return Deoptimized;
  }

private:
  void account(Clock::time_point Start) {
    Totals.OsrSeconds += seconds(Start, Clock::now());
    ++Totals.OsrCalls;
  }

  OsrDriver &Inner;
  LayerTotals &Totals;
};

} // namespace

double LayerTotals::wrappedSeconds() const {
  double Sum = OsrSeconds;
  for (double S : SampleSeconds)
    Sum += S;
  return Sum;
}

WrappedOutcome perfbench::runWrapped(const RunConfig &Config,
                                     LayerTotals &Totals) {
  const Clock::time_point BuildStart = Clock::now();
  const Workload W = makeWorkload(Config.WorkloadName, Config.Params);
  Totals.BuildSeconds += seconds(BuildStart, Clock::now());

  VirtualMachine VM(W.Prog, Config.Model);
  std::unique_ptr<ContextPolicy> Policy =
      makePolicy(Config.Policy, Config.MaxDepth);
  AdaptiveSystem Aos(VM, *Policy, Config.Aos);
  Aos.attach();

  // Interpose on what attach() installed, forwarding to it.
  TimedSampleSink Sink(Aos, Totals);
  VM.setSampleSink(&Sink);
  std::unique_ptr<TimedOsrDriver> Osr;
  if (OsrDriver *Installed = VM.osrDriver()) {
    Osr = std::make_unique<TimedOsrDriver>(*Installed, Totals);
    VM.setOsrDriver(Osr.get());
  }
  const Controller &Ctrl = Aos.controller();
  VM.codeManager().setEvictPreference([&Ctrl, &Totals](MethodId M) {
    ++Totals.VictimProbes;
    return Ctrl.preferKeepInCache(M);
  });

  for (MethodId Entry : W.Entries)
    VM.addThread(Entry);
  const Clock::time_point RunStart = Clock::now();
  VM.run();
  Totals.RunSeconds += seconds(RunStart, Clock::now());

  const ExecutionCounters &C = VM.counters();
  const CodeManager &Code = VM.codeManager();
  Totals.Instructions += C.InstructionsExecuted;
  Totals.Calls += C.CallsExecuted;
  Totals.InlinedCalls += C.InlinedCallsEntered;
  Totals.OptCompilations += Aos.stats().OptCompilations;
  Totals.Evictions += Code.numEvictions();
  Totals.RecompilesAfterEvict += Code.recompilesAfterEvict();
  Totals.FusedRunsInstalled += Code.fusedRunsInstalled();
  Totals.FusedBatchesExecuted += C.FusedRunsExecuted;
  Totals.Deopts += Aos.osrStats().Deopts;
  Totals.OsrEntries += Aos.osrStats().OsrEntries;

  WrappedOutcome Out;
  Out.WallCycles = VM.cycles();
  Out.ProgramResult = VM.threads().front()->Result.asInt();
  Out.Instructions = C.InstructionsExecuted;
  return Out;
}
