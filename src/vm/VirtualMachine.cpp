//===- vm/VirtualMachine.cpp - The simulated JVM ---------------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "vm/VirtualMachine.h"

#include "bytecode/Verifier.h"
#include "support/Audit.h"
#include "trace/TraceSink.h"
#include "vm/OsrDriver.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

using namespace aoci;

VirtualMachine::VirtualMachine(const Program &P, CostModel Model)
    : P(P), Model(Model), Hierarchy(P), Code(P, Model),
      HotData(P.numMethods()), NextSampleAt(Model.SamplePeriodCycles),
      SampleJitter(Model.SampleJitterSeed) {
#ifndef NDEBUG
  assert(verifyProgram(P).empty() && "program failed verification");
#endif
  // Register as the bounded code cache's engine delegate, so capacity is
  // enforced even for code installed directly through codeManager().
  Code.setEvictionDelegate(this);
}

void VirtualMachine::setTraceSink(TraceSink *T) {
  Trace = T;
  Code.setTraceSink(T);
  // Snapshot the name table so exports can render qualified names after
  // this VM (and its Program) are gone.
  if (T)
    T->captureMethodNames(static_cast<uint32_t>(P.numMethods()),
                          [this](uint32_t M) {
                            return P.qualifiedName(static_cast<MethodId>(M));
                          });
}

MethodHotData &VirtualMachine::hotData(MethodId M) {
  assert(static_cast<size_t>(M) < HotData.size() && "method id out of range");
  MethodHotData &Hot = HotData[M];
  if (!Hot.Body) {
    const Method &Meth = P.method(M);
    assert(!Meth.Body.empty() && "entering a method with no body");
    Hot.Body = Meth.Body.data();
    Hot.BodySize = static_cast<uint32_t>(Meth.Body.size());
    Hot.NumLocals = Meth.NumLocals;
    Hot.NumArgSlots = static_cast<uint16_t>(Meth.numArgSlots());
    Hot.MaxStack = maxOperandStackDepth(P, Meth);
  }
  return Hot;
}

const uint64_t *VirtualMachine::costTable(MethodHotData &H, OptLevel L,
                                          bool Inlined) {
  std::vector<uint64_t> &Table =
      H.Cost[static_cast<unsigned>(L) * 2 + (Inlined ? 1 : 0)];
  if (Table.empty()) {
    Table.reserve(H.BodySize);
    const uint64_t PerUnit = Model.cyclesPerUnit(L);
    for (uint32_t PC = 0; PC != H.BodySize; ++PC) {
      uint64_t Cost = H.Body[PC].machineSize() * PerUnit;
      // Inlined bodies see the scope benefit of cross-call optimization.
      if (Inlined)
        Cost = Cost * Model.ScopeBonusNum / Model.ScopeBonusDen;
      Table.push_back(Cost);
    }
  }
  return Table.data();
}

void VirtualMachine::throwRecursionLimit(const ThreadState &T,
                                         MethodId Callee) const {
  throw std::runtime_error(
      "frame-stack overflow: thread " + std::to_string(T.Id) + " at depth " +
      std::to_string(T.Frames.size()) + " entering " + P.qualifiedName(Callee) +
      " (CostModel::MaxFrameDepth = " + std::to_string(Model.MaxFrameDepth) +
      "; raise it or fix the runaway recursion)");
}

void VirtualMachine::pushFrame(ThreadState &T, MethodId Callee,
                               const CodeVariant *Variant,
                               const InlineNode *Plan, bool Inlined) {
  if (T.Frames.size() >= Model.MaxFrameDepth)
    throwRecursionLimit(T, Callee);

  MethodHotData &Hot = hotData(Callee);
  assert((T.Frames.empty()
              ? T.SlabTop == 0 && Hot.NumArgSlots == 0
              : T.SlabTop - T.Frames.back().StackBase >= Hot.NumArgSlots) &&
         "missing call arguments");

  // A physical invocation is the code cache's recency signal. Simulated
  // state only (the clock), so eviction order is identical across serial
  // and parallel runs — and a pure store when the cache is off.
  if (!Inlined)
    Variant->LastUsedCycle = Clock;

  Frame F;
  F.Method = Callee;
  F.Variant = Variant;
  F.PlanNode = Plan;
  F.Body = Hot.Body;
  F.Cost = costTable(Hot, Variant->Level, Inlined);
  F.Hot = &Hot;
  // The args the caller pushed become the callee's first locals in place.
  F.LocalsBase = T.SlabTop - Hot.NumArgSlots;
  F.StackBase = F.LocalsBase + Hot.NumLocals;
  F.Inlined = Inlined;
  // Fused handlers apply only to physical frames: inlined bodies charge
  // scope-bonus cost tables the precomputed batch charge would not match.
  F.Fuse = (!Inlined && Variant->Fused) ? Variant->Fused.get() : nullptr;

  const size_t Need = static_cast<size_t>(F.StackBase) + Hot.MaxStack;
  if (T.Slab.size() < Need)
    T.Slab.resize(std::max(Need, T.Slab.size() * 2));

  Value *Locals = T.Slab.data() + F.LocalsBase;
  for (unsigned S = Hot.NumArgSlots; S < Hot.NumLocals; ++S)
    Locals[S] = Value();

  T.SlabTop = F.StackBase;
  T.Frames.push_back(F);
}

unsigned VirtualMachine::addThread(MethodId Entry) {
  assert(P.method(Entry).Kind == MethodKind::Static &&
         P.method(Entry).NumParams == 0 &&
         "thread entry must be a static no-arg method");

  auto T = std::make_unique<ThreadState>();
  T->Id = static_cast<unsigned>(Threads.size());

  const CodeVariant *V = ensureCompiled(Entry);
  pushFrame(*T, Entry, V, V->Plan.empty() ? nullptr : &V->Plan.Root,
            /*Inlined=*/false);

  Threads.push_back(std::move(T));
  return Threads.back()->Id;
}

const CodeVariant *VirtualMachine::ensureCompiled(MethodId M) {
  if (const CodeVariant *V = Code.current(M))
    return V;
  // No current code (never compiled, or evicted without a live fallback):
  // baseline-compile. Current == nullptr implies Baseline == nullptr —
  // eviction only clears Current after the baseline fallback is gone — so
  // ensureBaseline always compiles here.
  return ensureBaseline(M);
}

const CodeVariant *VirtualMachine::ensureBaseline(MethodId M) {
  if (const CodeVariant *B = Code.baseline(M))
    return B;

  const Method &Meth = P.method(M);
  assert(!Meth.IsAbstract && "cannot compile an abstract method");

  // Phase-start markers are invoked exactly once, so their one baseline
  // compilation pins the simulated cycle the phase began at. Uncharged,
  // like all trace emission: the clock is stamped before the compile
  // cost is charged below, and nothing else changes.
  if (Trace && Trace->wants(TraceEventKind::PhaseShift)) {
    if (const int64_t Phase = P.phaseStartOf(M); Phase >= 0) {
      TraceEvent &E =
          Trace->append(TraceEventKind::PhaseShift, TraceTrackVm, Clock);
      E.Method = M;
      E.A = Phase;
      E.B = P.numPhaseStarts();
    }
  }

  auto V = std::make_unique<CodeVariant>();
  V->M = M;
  V->Level = OptLevel::Baseline;
  V->MachineUnits = Meth.machineSize();
  V->CodeBytes = Model.codeBytes(OptLevel::Baseline, V->MachineUnits);
  V->CompileCycles = Model.compileCycles(OptLevel::Baseline, V->MachineUnits);
  // Baseline compilation happens on the application thread in Jikes; it
  // advances the clock but is not AOS overhead.
  charge(V->CompileCycles);
  V->CompiledAtCycle = Clock;
  return Code.install(std::move(V));
}

void VirtualMachine::run(uint64_t CycleLimit) {
  // The round-robin cursor and the open quantum's end persist across
  // calls: a quantum the limit cut resumes in the next run(), so a run
  // sliced into run(L1)...run(Ln) replays one run()'s schedule exactly.
  while (Clock < CycleLimit) {
    if (RunCursor == Threads.size()) {
      RunCursor = 0;
      if (std::all_of(Threads.begin(), Threads.end(),
                      [](const auto &T) { return T->Finished; }))
        break;
    }
    ThreadState &T = *Threads[RunCursor];
    if (!T.Finished) {
      if (!QuantumOpen)
        QuantumEnd = Clock + Model.ThreadQuantumCycles;
      // Hoist the quantum/limit bound out of the stepping loop: one
      // comparison per instruction instead of three.
      interpret(T, std::min(QuantumEnd, CycleLimit), UINT64_MAX);
      QuantumOpen = !T.Finished && Clock < QuantumEnd;
      if (QuantumOpen)
        continue; // cut by CycleLimit: resume this thread next call
    }
    ++RunCursor;
  }
}

void VirtualMachine::step(ThreadState &T, uint64_t MaxInstructions) {
  interpret(T, UINT64_MAX, MaxInstructions);
}

void VirtualMachine::maybeDeliverSample(ThreadState &T, bool AtPrologue) {
  if (Clock < NextSampleAt)
    return;
  while (NextSampleAt <= Clock)
    NextSampleAt += jitteredPeriod();
  ++Counters.SamplesTaken;
  if (AtPrologue)
    ++Counters.PrologueSamples;
  if (Trace && Trace->wants(TraceEventKind::Sample)) {
    TraceEvent &E = Trace->append(TraceEventKind::Sample, TraceTrackVm, Clock);
    E.Thread = T.Id;
    E.Method = T.Frames.back().Method;
    E.A = AtPrologue ? 1 : 0;
    E.B = static_cast<int64_t>(Counters.SamplesTaken - 1);
  }
  if (Sink)
    Sink->onSample(*this, T, AtPrologue);
}

bool VirtualMachine::maybeOsrAtBackedge(ThreadState &T) {
  Frame &F = T.Frames.back();
  // Inlined frames share the physical root's variant, so comparing the
  // variant against the current code for the *variant's* method detects
  // staleness uniformly: a stale physical frame is an OSR candidate, a
  // stale inlined frame a deoptimization candidate.
  if (Code.current(F.Variant->M) == F.Variant)
    return false;
  return Osr->onStaleBackedge(*this, T);
}

void VirtualMachine::maybeCollectGarbage() {
  if (TheHeap.bytesSinceGc() < Model.GcTriggerBytes)
    return;
  uint64_t Pause = Model.GcPauseBase +
                   Model.GcPausePerKilobyte * (TheHeap.bytesSinceGc() / 1024);
  const uint64_t PauseStart = Clock;
  charge(Pause);
  ++Counters.GcPauses;
  Counters.GcCycles += Pause;
  if (Trace && Trace->wants(TraceEventKind::GcPause)) {
    TraceEvent &E =
        Trace->append(TraceEventKind::GcPause, TraceTrackVm, PauseStart);
    E.Dur = Pause;
    E.A = static_cast<int64_t>(TheHeap.bytesSinceGc());
    E.B = static_cast<int64_t>(Counters.GcPauses - 1);
  }
  TheHeap.noteCollection();
}

void VirtualMachine::enterPhysicalFrame(ThreadState &T, MethodId Callee,
                                        const CodeVariant *Variant) {
  pushFrame(T, Callee, Variant,
            Variant->Plan.empty() ? nullptr : &Variant->Plan.Root,
            /*Inlined=*/false);
  ++Counters.CallsExecuted;
}

void VirtualMachine::enterInlinedFrame(ThreadState &T,
                                       const InlineCase &Case) {
  const CodeVariant *Variant = T.Frames.back().Variant;
  charge(Model.InlineEntry);
  pushFrame(T, Case.Callee, Variant, Case.Body.get(), /*Inlined=*/true);
  ++Counters.InlinedCallsEntered;
}

void VirtualMachine::handleCall(ThreadState &T, const Instruction &I) {
  const MethodId DeclId = static_cast<MethodId>(I.Operand);
  const Method &Decl = P.method(DeclId);
  const unsigned ArgSlots = Decl.numArgSlots();

  Frame &F = T.Frames.back();
  assert(T.SlabTop - F.StackBase >= ArgSlots && "stack underflow at call");

  // Resolve the runtime target and the dispatch cost a full dynamic call
  // would pay.
  MethodId Target = DeclId;
  uint64_t DispatchCost = 0;
  MethodHotData::IcEntry *IcSlot = nullptr;
  if (I.Op == Opcode::InvokeVirtual || I.Op == Opcode::InvokeInterface) {
    const Value &Receiver = T.Slab[T.SlabTop - ArgSlots];
    assert(Receiver.isRef() && "null or non-reference receiver");
    const HeapObject &Obj = TheHeap.object(Receiver.asRef());
    assert(!Obj.IsArray && "virtual call on an array");
    // Monomorphic inline cache: resolveVirtual is a pure function of
    // (receiver class, override root), so memoizing the last receiver per
    // site can only skip the hierarchy walk, never change its answer.
    MethodHotData &Hot = *F.Hot;
    if (Hot.InlineCaches.empty())
      Hot.InlineCaches.resize(Hot.BodySize);
    MethodHotData::IcEntry &Ic = Hot.InlineCaches[F.PC];
    if (Ic.Receiver == Obj.Klass) {
      Target = Ic.Target;
    } else {
      Target = Hierarchy.resolveVirtual(Obj.Klass, Decl.OverrideRoot);
      assert(Target != InvalidMethodId && "receiver does not implement method");
      Ic.Receiver = Obj.Klass;
      Ic.Target = Target;
      Ic.Code = nullptr;
    }
    IcSlot = &Ic;
    DispatchCost = I.Op == Opcode::InvokeVirtual ? Model.VirtualDispatch
                                                 : Model.InterfaceDispatch;
  }

  // Consult the active inline plan for this call site.
  if (F.PlanNode) {
    if (const InlineNode::SiteDecision *Decision = F.PlanNode->lookup(F.PC)) {
      for (const InlineCase &Case : Decision->Cases) {
        if (Case.Guarded) {
          charge(Model.GuardTest);
          ++Counters.GuardTestsExecuted;
          if (Case.Callee != Target)
            continue;
        } else {
          assert(Case.Callee == Target &&
                 "unguarded inline of a mispredicted target");
        }
        enterInlinedFrame(T, Case);
        return;
      }
      // Every guard failed: fall back to the virtual invocation the
      // compiler left behind (Section 5's "fallback virtual invocation").
      ++Counters.GuardFallbacks;
      if (Trace && Trace->wants(TraceEventKind::GuardFallback)) {
        TraceEvent &E =
            Trace->append(TraceEventKind::GuardFallback, TraceTrackVm, Clock);
        E.Thread = T.Id;
        E.Method = F.Method;
        E.A = F.PC;
        E.B = Target;
      }
    }
  }

  charge(Model.CallOverhead + DispatchCost);
  // The inline cache also memoizes the target's code. A hit skips the
  // ensureCompiled() lookup, which charges nothing for already-compiled
  // methods — so the memo is cycle-neutral, but ONLY as long as install
  // and evict drop stale entries (see onInstalled/onEvicted).
  const CodeVariant *V;
  if (IcSlot != nullptr && IcSlot->Code != nullptr) {
    assert(IcSlot->Code == Code.current(Target) && "stale inline-cache code");
    V = IcSlot->Code;
  } else {
    V = ensureCompiled(Target);
    if (IcSlot != nullptr)
      IcSlot->Code = V;
  }
  enterPhysicalFrame(T, Target, V);
  // A physical method entry is a prologue yieldpoint (Section 3.2): if the
  // timer has fired, the edge/trace listeners sample here.
  maybeDeliverSample(T, /*AtPrologue=*/true);
}

void VirtualMachine::handleReturn(ThreadState &T, bool HasValue) {
  const Frame Done = T.Frames.back();
  T.Frames.pop_back();

  Value Ret;
  if (HasValue) {
    assert(T.SlabTop > Done.StackBase && "value return with empty stack");
    Ret = T.Slab[T.SlabTop - 1];
  }
  charge(Done.Inlined ? 1 : Model.ReturnOverhead);
  if (Osr != nullptr && Done.OsrEntered)
    Osr->onOsrFrameReturn(*this, T, Done);

  // Truncating to the callee's locals base frees its locals and stack and
  // re-exposes the caller's stack with the argument slots already consumed
  // (they were the callee's first locals).
  T.SlabTop = Done.LocalsBase;

  if (T.Frames.empty()) {
    T.Finished = true;
    if (HasValue)
      T.Result = Ret;
    return;
  }

  Frame &Caller = T.Frames.back();
  assert(isInvoke(Caller.Body[Caller.PC].Op) &&
         "caller not suspended at an invoke");
  ++Caller.PC;
  if (HasValue)
    T.Slab[T.SlabTop++] = Ret;
}

void VirtualMachine::interpret(ThreadState &T, uint64_t StopClock,
                               uint64_t MaxInstr) {
  // Outer loop: (re-)derive the cached view of the top frame. The inner
  // loop executes with PC and the operand-stack top in locals, spilling
  // them back only where someone else can observe them — frame entry/exit
  // (Refresh) and sample delivery. The frame reserved StackBase + MaxStack
  // slab slots at entry, so pushes within the verifier's depth bound need
  // no per-push capacity check.
  while (!T.Finished && Clock < StopClock && MaxInstr != 0) {
    Frame &F = T.Frames.back();
    const Instruction *const Body = F.Body;
    const uint64_t *const Cost = F.Cost;
    Value *const Slab = T.Slab.data();
    Value *const Locals = Slab + F.LocalsBase;
    uint32_t PC = F.PC;
    uint32_t Top = T.SlabTop;
    const uint32_t StackBase = F.StackBase;
    // Fused straight-line handlers of this frame's variant (null for
    // inlined frames or with fusion off). One null test per dispatch is
    // the whole cost of the feature when disabled.
    const FusedRun *const *const FuseMap = F.Fuse ? F.Fuse->runMap() : nullptr;
    const FusedOp *const FuseOps = F.Fuse ? F.Fuse->Ops.data() : nullptr;
    // Set when the instruction changed the frame stack (call/return) or
    // resized the slab: cached pointers are stale, fall out to re-derive.
    bool Refresh = false;
#ifndef NDEBUG
    const uint32_t MaxStack = F.Hot->MaxStack;
    const uint32_t BodySize = F.Hot->BodySize;
    const uint16_t NumLocals = F.Hot->NumLocals;
#endif

    auto push = [&](Value V) {
      assert(Top - StackBase < MaxStack && "operand stack overflow");
      Slab[Top++] = V;
    };
    auto popValue = [&]() {
      assert(Top > StackBase && "operand stack underflow");
      return Slab[--Top];
    };
    auto popInt = [&popValue]() { return popValue().asInt(); };
    // Binary ops write the result over the first operand's slot instead of
    // pop/pop/push: one top-of-stack adjustment instead of three.
    auto binaryInt = [&](auto Fn) {
      assert(Top - StackBase >= 2 && "operand stack underflow");
      const int64_t B = Slab[Top - 1].asInt();
      const int64_t A = Slab[Top - 2].asInt();
      Slab[Top - 2] = Value::makeInt(Fn(A, B));
      --Top;
      ++PC;
    };
    auto branchTo = [&](int64_t Target) {
      const bool Backward = Target <= PC;
      PC = static_cast<uint32_t>(Target);
      // Taken backward branches are loop-backedge yieldpoints. Listeners
      // walk the frame stack, so spill the cached state first. They are
      // also the OSR points: a sample delivered here can install a
      // replacement variant, which the staleness check then picks up at
      // this same backedge. A remap invalidates the cached Cost pointer,
      // hence Refresh.
      if (Backward) {
        F.PC = PC;
        T.SlabTop = Top;
        maybeDeliverSample(T, /*AtPrologue=*/false);
        if (Osr != nullptr && maybeOsrAtBackedge(T))
          Refresh = true;
        // Sample delivery can install code and the bounded cache may then
        // deoptimize this very frame out of an evicted variant; the remap
        // swaps F.Cost, so a changed table means the cached view is stale
        // even when the OSR hook reported no transfer.
        if (F.Cost != Cost)
          Refresh = true;
      }
    };

    do {
      assert(PC < BodySize && "PC out of range");
      if (FuseMap != nullptr) {
        if (const FusedRun *R = FuseMap[PC]) {
          // Batch only when the whole run fits the remaining budgets. The
          // per-instruction path re-checks clock and instruction budget
          // before each *subsequent* instruction, and per-PC charges are
          // non-negative, so the check before the run's last instruction
          // is the binding one: Clock + ChargeBeforeLast < StopClock is
          // exactly "per-instruction execution would have completed the
          // run inside this activation of the loop". Otherwise fall
          // through to per-bytecode dispatch, which suspends at exact PC
          // granularity — always correct, merely slower.
          if (MaxInstr >= R->Length &&
              Clock + R->ChargeBeforeLast < StopClock) {
            assert(Top - StackBase == R->DepthBefore && "fused entry depth");
            executeFusedOps(FuseOps + R->FirstOp, R->NumOps, Locals,
                            Slab + StackBase);
            Clock += R->BatchCharge;
            Counters.InstructionsExecuted += R->Length;
            ++Counters.FusedRunsExecuted;
            MaxInstr -= R->Length;
            PC += R->Length;
            Top = StackBase + R->DepthAfter;
            assert(PC < BodySize && "fused run ran off the body");
            continue;
          }
        }
      }
      const Instruction &I = Body[PC];
      ++Counters.InstructionsExecuted;
      --MaxInstr;
      Clock += Cost[PC];

      switch (I.Op) {
      case Opcode::Nop:
      case Opcode::Work:
        ++PC;
        break;
      case Opcode::IConst:
        push(Value::makeInt(I.Operand));
        ++PC;
        break;
      case Opcode::ConstNull:
        push(Value::makeNull());
        ++PC;
        break;
      case Opcode::LoadLocal:
        assert(I.Operand >= 0 && I.Operand < NumLocals);
        push(Locals[static_cast<size_t>(I.Operand)]);
        ++PC;
        break;
      case Opcode::StoreLocal:
        assert(I.Operand >= 0 && I.Operand < NumLocals);
        Locals[static_cast<size_t>(I.Operand)] = popValue();
        ++PC;
        break;
      case Opcode::Dup: {
        assert(Top > StackBase && "dup on empty stack");
        push(Slab[Top - 1]);
        ++PC;
        break;
      }
      case Opcode::Pop:
        popValue();
        ++PC;
        break;
      case Opcode::Swap: {
        Value B = popValue();
        Value A = popValue();
        push(B);
        push(A);
        ++PC;
        break;
      }
      // Arithmetic wraps modulo 2^64 (Java semantics); division by zero
      // yields 0 and INT64_MIN / -1 wraps instead of trapping.
      case Opcode::IAdd:
        binaryInt([](int64_t A, int64_t B) {
          return static_cast<int64_t>(static_cast<uint64_t>(A) +
                                      static_cast<uint64_t>(B));
        });
        break;
      case Opcode::ISub:
        binaryInt([](int64_t A, int64_t B) {
          return static_cast<int64_t>(static_cast<uint64_t>(A) -
                                      static_cast<uint64_t>(B));
        });
        break;
      case Opcode::IMul:
        binaryInt([](int64_t A, int64_t B) {
          return static_cast<int64_t>(static_cast<uint64_t>(A) *
                                      static_cast<uint64_t>(B));
        });
        break;
      case Opcode::IDiv:
        binaryInt([](int64_t A, int64_t B) {
          if (B == 0)
            return static_cast<int64_t>(0);
          if (A == INT64_MIN && B == -1)
            return A;
          return A / B;
        });
        break;
      case Opcode::IRem:
        binaryInt([](int64_t A, int64_t B) {
          if (B == 0)
            return static_cast<int64_t>(0);
          if (A == INT64_MIN && B == -1)
            return static_cast<int64_t>(0);
          return A % B;
        });
        break;
      case Opcode::IAnd:
        binaryInt([](int64_t A, int64_t B) { return A & B; });
        break;
      case Opcode::IOr:
        binaryInt([](int64_t A, int64_t B) { return A | B; });
        break;
      case Opcode::IXor:
        binaryInt([](int64_t A, int64_t B) { return A ^ B; });
        break;
      case Opcode::IShl:
        binaryInt([](int64_t A, int64_t B) {
          return static_cast<int64_t>(static_cast<uint64_t>(A) << (B & 63));
        });
        break;
      case Opcode::IShr:
        binaryInt([](int64_t A, int64_t B) { return A >> (B & 63); });
        break;
      case Opcode::INeg: {
        assert(Top > StackBase && "operand stack underflow");
        Value &V = Slab[Top - 1];
        V = Value::makeInt(
            static_cast<int64_t>(0 - static_cast<uint64_t>(V.asInt())));
        ++PC;
        break;
      }
      case Opcode::ICmpEq: {
        assert(Top - StackBase >= 2 && "operand stack underflow");
        const Value B = Slab[Top - 1];
        const Value A = Slab[Top - 2];
        Slab[Top - 2] = Value::makeInt(A.equals(B) ? 1 : 0);
        --Top;
        ++PC;
        break;
      }
      case Opcode::ICmpNe: {
        assert(Top - StackBase >= 2 && "operand stack underflow");
        const Value B = Slab[Top - 1];
        const Value A = Slab[Top - 2];
        Slab[Top - 2] = Value::makeInt(A.equals(B) ? 0 : 1);
        --Top;
        ++PC;
        break;
      }
      case Opcode::ICmpLt:
        binaryInt([](int64_t A, int64_t B) { return A < B ? 1 : 0; });
        break;
      case Opcode::ICmpLe:
        binaryInt([](int64_t A, int64_t B) { return A <= B ? 1 : 0; });
        break;
      case Opcode::ICmpGt:
        binaryInt([](int64_t A, int64_t B) { return A > B ? 1 : 0; });
        break;
      case Opcode::ICmpGe:
        binaryInt([](int64_t A, int64_t B) { return A >= B ? 1 : 0; });
        break;
      case Opcode::Goto:
        branchTo(I.Operand);
        break;
      case Opcode::IfZero: {
        int64_t C = popInt();
        if (C == 0)
          branchTo(I.Operand);
        else
          ++PC;
        break;
      }
      case Opcode::IfNonZero: {
        int64_t C = popInt();
        if (C != 0)
          branchTo(I.Operand);
        else
          ++PC;
        break;
      }
      case Opcode::IfNull: {
        Value V = popValue();
        if (V.isNull())
          branchTo(I.Operand);
        else
          ++PC;
        break;
      }
      case Opcode::IfNonNull: {
        Value V = popValue();
        if (!V.isNull())
          branchTo(I.Operand);
        else
          ++PC;
        break;
      }
      case Opcode::New: {
        const Klass &K = P.klass(static_cast<ClassId>(I.Operand));
        assert(K.isInstantiable() && "new of a non-instantiable class");
        charge(Model.AllocBase + Model.AllocPerSlot * K.NumFields);
        ++Counters.Allocations;
        push(Value::makeRef(TheHeap.allocateObject(K.id(), K.NumFields)));
        maybeCollectGarbage();
        ++PC;
        break;
      }
      case Opcode::GetField: {
        Value R = popValue();
        assert(R.isRef() && "getfield on non-reference");
        HeapObject &Obj = TheHeap.object(R.asRef());
        assert(static_cast<size_t>(I.Operand) < Obj.Slots.size());
        push(Obj.Slots[static_cast<size_t>(I.Operand)]);
        ++PC;
        break;
      }
      case Opcode::PutField: {
        Value V = popValue();
        Value R = popValue();
        assert(R.isRef() && "putfield on non-reference");
        HeapObject &Obj = TheHeap.object(R.asRef());
        assert(static_cast<size_t>(I.Operand) < Obj.Slots.size());
        Obj.Slots[static_cast<size_t>(I.Operand)] = V;
        ++PC;
        break;
      }
      case Opcode::NewArray: {
        int64_t Len = popInt();
        if (Len < 0)
          Len = 0;
        charge(Model.AllocBase +
               Model.AllocPerSlot * static_cast<uint64_t>(Len));
        ++Counters.Allocations;
        push(Value::makeRef(
            TheHeap.allocateArray(static_cast<unsigned>(Len))));
        maybeCollectGarbage();
        ++PC;
        break;
      }
      case Opcode::ArrayLoad: {
        int64_t Index = popInt();
        Value R = popValue();
        assert(R.isRef() && "arrayload on non-reference");
        HeapObject &Arr = TheHeap.object(R.asRef());
        assert(Arr.IsArray && Index >= 0 &&
               static_cast<size_t>(Index) < Arr.Slots.size());
        push(Arr.Slots[static_cast<size_t>(Index)]);
        ++PC;
        break;
      }
      case Opcode::ArrayStore: {
        Value V = popValue();
        int64_t Index = popInt();
        Value R = popValue();
        assert(R.isRef() && "arraystore on non-reference");
        HeapObject &Arr = TheHeap.object(R.asRef());
        assert(Arr.IsArray && Index >= 0 &&
               static_cast<size_t>(Index) < Arr.Slots.size());
        Arr.Slots[static_cast<size_t>(Index)] = V;
        ++PC;
        break;
      }
      case Opcode::ArrayLength: {
        Value R = popValue();
        assert(R.isRef() && "arraylength on non-reference");
        push(Value::makeInt(
            static_cast<int64_t>(TheHeap.object(R.asRef()).Slots.size())));
        ++PC;
        break;
      }
      case Opcode::InstanceOf: {
        Value R = popValue();
        int64_t Result = 0;
        if (R.isRef()) {
          const HeapObject &Obj = TheHeap.object(R.asRef());
          if (!Obj.IsArray)
            Result = Hierarchy.isSubtypeOf(Obj.Klass,
                                           static_cast<ClassId>(I.Operand))
                         ? 1
                         : 0;
        }
        push(Value::makeInt(Result));
        ++PC;
        break;
      }
      case Opcode::InvokeStatic:
      case Opcode::InvokeVirtual:
      case Opcode::InvokeInterface:
      case Opcode::InvokeSpecial:
        // handleCall reads the spilled PC (inline-cache key, plan lookup)
        // and SlabTop (arguments), and may push a frame / resize the slab.
        F.PC = PC;
        T.SlabTop = Top;
        handleCall(T, I);
        Refresh = true;
        break;
      case Opcode::Return:
        T.SlabTop = Top;
        handleReturn(T, /*HasValue=*/false);
        Refresh = true;
        break;
      case Opcode::ValueReturn:
        T.SlabTop = Top;
        handleReturn(T, /*HasValue=*/true);
        Refresh = true;
        break;
      }
    } while (!Refresh && Clock < StopClock && MaxInstr != 0);

    if (!Refresh) {
      // Left the inner loop on the clock or instruction budget: the cached
      // state is authoritative, spill it for the next resume.
      F.PC = PC;
      T.SlabTop = Top;
      return;
    }
    // Frame changed (call or return): loop around to re-derive the cached
    // view. F may dangle here — do not touch it.
  }
}

void VirtualMachine::executeFusedOps(const FusedOp *Ops, uint32_t NumOps,
                                     Value *Locals, Value *Stack) {
  // Straight-line replay of one fused run. Every case replicates the
  // corresponding interpreter switch case bit-for-bit (wrapping
  // arithmetic, division guards, tag-aware equality, heap asserts); the
  // only difference is that stack shuffling was compiled away and slots
  // are addressed directly. Operands are read before the destination is
  // written, so an op may target a slot it also reads.
  auto read = [&](const FusedOperand &O) -> Value {
    switch (O.Kind) {
    case FusedSrc::Const:
      return O.Imm;
    case FusedSrc::Local:
      return Locals[O.Index];
    case FusedSrc::Slot:
      return Stack[O.Index];
    }
    return Value();
  };
  auto binary = [&](const FusedOp &Op, auto Fn) {
    const int64_t A = read(Op.A).asInt();
    const int64_t B = read(Op.B).asInt();
    return Value::makeInt(Fn(A, B));
  };

  for (const FusedOp *Op = Ops, *End = Ops + NumOps; Op != End; ++Op) {
    Value R;
    switch (Op->Kind) {
    case FusedOpKind::Copy:
      R = read(Op->A);
      break;
    case FusedOpKind::Swap: {
      const Value Tmp = Stack[Op->A.Index];
      Stack[Op->A.Index] = Stack[Op->B.Index];
      Stack[Op->B.Index] = Tmp;
      break;
    }
    case FusedOpKind::Add:
      R = binary(*Op, [](int64_t A, int64_t B) {
        return static_cast<int64_t>(static_cast<uint64_t>(A) +
                                    static_cast<uint64_t>(B));
      });
      break;
    case FusedOpKind::Sub:
      R = binary(*Op, [](int64_t A, int64_t B) {
        return static_cast<int64_t>(static_cast<uint64_t>(A) -
                                    static_cast<uint64_t>(B));
      });
      break;
    case FusedOpKind::Mul:
      R = binary(*Op, [](int64_t A, int64_t B) {
        return static_cast<int64_t>(static_cast<uint64_t>(A) *
                                    static_cast<uint64_t>(B));
      });
      break;
    case FusedOpKind::Div:
      R = binary(*Op, [](int64_t A, int64_t B) {
        if (B == 0)
          return static_cast<int64_t>(0);
        if (A == INT64_MIN && B == -1)
          return A;
        return A / B;
      });
      break;
    case FusedOpKind::Rem:
      R = binary(*Op, [](int64_t A, int64_t B) {
        if (B == 0)
          return static_cast<int64_t>(0);
        if (A == INT64_MIN && B == -1)
          return static_cast<int64_t>(0);
        return A % B;
      });
      break;
    case FusedOpKind::And:
      R = binary(*Op, [](int64_t A, int64_t B) { return A & B; });
      break;
    case FusedOpKind::Or:
      R = binary(*Op, [](int64_t A, int64_t B) { return A | B; });
      break;
    case FusedOpKind::Xor:
      R = binary(*Op, [](int64_t A, int64_t B) { return A ^ B; });
      break;
    case FusedOpKind::Shl:
      R = binary(*Op, [](int64_t A, int64_t B) {
        return static_cast<int64_t>(static_cast<uint64_t>(A) << (B & 63));
      });
      break;
    case FusedOpKind::Shr:
      R = binary(*Op, [](int64_t A, int64_t B) { return A >> (B & 63); });
      break;
    case FusedOpKind::Neg:
      R = Value::makeInt(static_cast<int64_t>(
          0 - static_cast<uint64_t>(read(Op->A).asInt())));
      break;
    case FusedOpKind::CmpEq:
      R = Value::makeInt(read(Op->A).equals(read(Op->B)) ? 1 : 0);
      break;
    case FusedOpKind::CmpNe:
      R = Value::makeInt(read(Op->A).equals(read(Op->B)) ? 0 : 1);
      break;
    case FusedOpKind::CmpLt:
      R = binary(*Op, [](int64_t A, int64_t B) { return A < B ? 1 : 0; });
      break;
    case FusedOpKind::CmpLe:
      R = binary(*Op, [](int64_t A, int64_t B) { return A <= B ? 1 : 0; });
      break;
    case FusedOpKind::CmpGt:
      R = binary(*Op, [](int64_t A, int64_t B) { return A > B ? 1 : 0; });
      break;
    case FusedOpKind::CmpGe:
      R = binary(*Op, [](int64_t A, int64_t B) { return A >= B ? 1 : 0; });
      break;
    case FusedOpKind::GetField: {
      const Value Ref = read(Op->A);
      assert(Ref.isRef() && "getfield on non-reference");
      HeapObject &Obj = TheHeap.object(Ref.asRef());
      assert(static_cast<size_t>(Op->Imm) < Obj.Slots.size());
      R = Obj.Slots[static_cast<size_t>(Op->Imm)];
      break;
    }
    case FusedOpKind::PutField: {
      const Value Ref = read(Op->A);
      const Value V = read(Op->B);
      assert(Ref.isRef() && "putfield on non-reference");
      HeapObject &Obj = TheHeap.object(Ref.asRef());
      assert(static_cast<size_t>(Op->Imm) < Obj.Slots.size());
      Obj.Slots[static_cast<size_t>(Op->Imm)] = V;
      break;
    }
    case FusedOpKind::ArrayLoad: {
      const Value Ref = read(Op->A);
      const int64_t Index = read(Op->B).asInt();
      assert(Ref.isRef() && "arrayload on non-reference");
      HeapObject &Arr = TheHeap.object(Ref.asRef());
      assert(Arr.IsArray && Index >= 0 &&
             static_cast<size_t>(Index) < Arr.Slots.size());
      R = Arr.Slots[static_cast<size_t>(Index)];
      break;
    }
    case FusedOpKind::ArrayStore: {
      const Value Ref = read(Op->A);
      const int64_t Index = read(Op->B).asInt();
      const Value V = read(Op->C);
      assert(Ref.isRef() && "arraystore on non-reference");
      HeapObject &Arr = TheHeap.object(Ref.asRef());
      assert(Arr.IsArray && Index >= 0 &&
             static_cast<size_t>(Index) < Arr.Slots.size());
      Arr.Slots[static_cast<size_t>(Index)] = V;
      break;
    }
    case FusedOpKind::ArrayLength: {
      const Value Ref = read(Op->A);
      assert(Ref.isRef() && "arraylength on non-reference");
      R = Value::makeInt(
          static_cast<int64_t>(TheHeap.object(Ref.asRef()).Slots.size()));
      break;
    }
    case FusedOpKind::InstanceOf: {
      const Value Ref = read(Op->A);
      int64_t Result = 0;
      if (Ref.isRef()) {
        const HeapObject &Obj = TheHeap.object(Ref.asRef());
        if (!Obj.IsArray)
          Result = Hierarchy.isSubtypeOf(Obj.Klass,
                                         static_cast<ClassId>(Op->Imm))
                       ? 1
                       : 0;
      }
      R = Value::makeInt(Result);
      break;
    }
    }
    if (Op->Dst == FusedDst::Slot)
      Stack[Op->DstIndex] = R;
    else if (Op->Dst == FusedDst::Local)
      Locals[Op->DstIndex] = R;
  }
}

//===----------------------------------------------------------------------===//
// CodeEvictionDelegate: the bounded code cache's engine hooks.
//===----------------------------------------------------------------------===//

bool VirtualMachine::prepareEviction(const CodeVariant &V) {
  bool Live = false;
  for (const auto &TPtr : Threads) {
    for (const Frame &F : TPtr->Frames)
      if (F.Variant == &V) {
        Live = true;
        break;
      }
    if (Live)
      break;
  }
  if (!Live)
    return true;

  // Live activations can only be transferred *to* baseline code, so a
  // live baseline variant is pinned; so is any live variant when no OSR
  // driver is attached to do the transfer.
  if (V.Level == OptLevel::Baseline || Osr == nullptr)
    return false;
  if (!Osr->onEvictVariant(*this, V))
    return false;

  // Trust but verify: the driver claims every activation was deoptimized
  // out of the variant. A frame still on it means eviction would leave
  // the interpreter running tombstoned code.
  for (const auto &TPtr : Threads)
    for (const Frame &F : TPtr->Frames)
      if (F.Variant == &V)
        return false;
  return true;
}

void VirtualMachine::invalidateIcMemos(const CodeVariant &V) {
  for (MethodHotData &Hot : HotData)
    for (MethodHotData::IcEntry &Ic : Hot.InlineCaches)
      if (Ic.Code == &V)
        Ic.Code = nullptr;
}

void VirtualMachine::onEvicted(const CodeVariant &V) {
  // The interpreter must never dispatch into reclaimed code: drop every
  // inline-cache memo that resolved to the evicted variant. Receiver and
  // Target survive — they are pure functions of the class hierarchy.
  invalidateIcMemos(V);
  auditState("evict");
}

void VirtualMachine::onInstalled(const CodeVariant & /*Installed*/,
                                 const CodeVariant *Superseded) {
  if (Superseded != nullptr)
    invalidateIcMemos(*Superseded);
  auditState("install");
}

void VirtualMachine::auditState(const char *Where) const {
  if (!audit::enabled())
    return;
  for (const auto &TPtr : Threads) {
    for (const Frame &F : TPtr->Frames) {
      audit::check(F.Variant != nullptr && !F.Variant->Evicted, "vm",
                   std::string(Where) + ": thread " + std::to_string(TPtr->Id) +
                       " has a frame on evicted code of method " +
                       std::to_string(F.Variant ? F.Variant->M : F.Method));
      audit::check(F.Hot != nullptr && F.Body == F.Hot->Body, "vm",
                   std::string(Where) + ": thread " + std::to_string(TPtr->Id) +
                       " frame body pointer diverged from hot data of method " +
                       std::to_string(F.Method));
      audit::check(F.Fuse == nullptr ||
                       (!F.Inlined && F.Variant != nullptr &&
                        F.Fuse == F.Variant->Fused.get()),
                   "vm",
                   std::string(Where) + ": thread " + std::to_string(TPtr->Id) +
                       " frame holds a stale fused-handler map of method " +
                       std::to_string(F.Method));
    }
  }
  for (size_t M = 0; M != HotData.size(); ++M) {
    for (const MethodHotData::IcEntry &Ic : HotData[M].InlineCaches) {
      if (Ic.Code == nullptr)
        continue;
      audit::check(!Ic.Code->Evicted && Ic.Code->M == Ic.Target &&
                       Ic.Code == Code.current(Ic.Target),
                   "vm",
                   std::string(Where) + ": inline cache in method " +
                       std::to_string(M) + " memoizes stale code of method " +
                       std::to_string(Ic.Target));
    }
  }
}

std::vector<const Frame *> aoci::sourceStack(const ThreadState &T) {
  std::vector<const Frame *> Frames;
  Frames.reserve(T.Frames.size());
  for (auto It = T.Frames.rbegin(), E = T.Frames.rend(); It != E; ++It)
    Frames.push_back(&*It);
  return Frames;
}

std::vector<const Frame *> aoci::physicalStack(const ThreadState &T) {
  std::vector<const Frame *> Frames;
  for (auto It = T.Frames.rbegin(), E = T.Frames.rend(); It != E; ++It)
    if (!It->Inlined)
      Frames.push_back(&*It);
  return Frames;
}
