//===- harness/CsvExport.h - Machine-readable result export -----*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flat CSV export of grid results, one row per run (the cins baselines
/// plus every policy x depth cell), with the derived Figure 4/5 deltas
/// attached to the cell rows. Intended for plotting the paper's bar
/// charts from a spreadsheet or a notebook.
///
/// Each CSV (these two and exportServeCsv in Serve.h) is one ordered
/// column list: run counters, named and formatted by the counter table
/// (RunCounters.h), beside the CSV's own columns. The goldens pin the
/// columns: tests/golden/csv_export.golden, metrics_csv.golden and
/// serve_csv.golden.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_HARNESS_CSVEXPORT_H
#define AOCI_HARNESS_CSVEXPORT_H

#include "harness/Experiment.h"
#include "harness/RunCounters.h"

#include <span>
#include <string>
#include <vector>

namespace aoci {

/// Renders a grid CSV, one row per run. Baseline rows carry empty delta
/// columns. Rows are ordered by workload, then baseline first, then
/// policies x depths as given.
std::string exportCsv(const GridResults &Results,
                      const std::vector<PolicyKind> &Policies,
                      const std::vector<unsigned> &Depths);

/// Renders the harness-side execution record (GridResults::metrics())
/// as CSV, one row per run in grid order, each host record beside its
/// run's counters. `steady` is n/a for untraced runs (see SteadyState.h).
/// Kept separate from exportCsv(): simulated results are bit-identical
/// across thread counts, host timings and worker assignments are not.
std::string exportMetricsCsv(const GridResults &Results);

/// Renders counter \p Counter of \p R as one CSV cell.
std::string formatCounter(const runcounter::Spec &Counter,
                          const RunResult &R);

/// One column of a CSV whose rows are \p Row (which points at the run it
/// describes as `Run`): a run counter, named by its reader and rendered
/// under its table name or an alias, or a column of the CSV's own.
template <typename Row> struct CsvColumn {
  constexpr CsvColumn(runcounter::Reader Get, const char *Alias = nullptr)
      : Get(Get), Name(Alias) {}
  constexpr CsvColumn(const char *Name, std::string (*Own)(const Row &))
      : Name(Name), Own(Own) {}

  const char *name() const { return Name ? Name : runcounter::find(Get).Name; }

  runcounter::Reader Get = nullptr;
  /// The header; null for a counter shown under its table name.
  const char *Name;
  std::string (*Own)(const Row &) = nullptr;
};

/// Renders the header line, then one line per row.
template <typename Row>
std::string renderCsv(std::span<const CsvColumn<Row>> Columns,
                      std::span<const Row> Rows) {
  std::string Out;
  auto Line = [&Out, Columns](auto Cell) {
    for (const CsvColumn<Row> &C : Columns) {
      if (&C != Columns.data())
        Out += ',';
      Out += Cell(C);
    }
    Out += '\n';
  };
  Line([](const CsvColumn<Row> &C) { return C.name(); });
  for (const Row &R : Rows)
    Line([&R](const CsvColumn<Row> &C) {
      return C.Own ? C.Own(R)
                   : formatCounter(runcounter::find(C.Get), *R.Run);
    });
  return Out;
}

} // namespace aoci

#endif // AOCI_HARNESS_CSVEXPORT_H
