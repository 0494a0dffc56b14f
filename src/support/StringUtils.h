//===- support/StringUtils.h - Text formatting helpers ----------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style std::string formatting and simple table rendering used by
/// the reporters that regenerate the paper's tables and figures as text,
/// plus the checked real-number parser behind `aoci`'s real-valued flags
/// and the bench drivers' AOCI_SCALE.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_SUPPORT_STRINGUTILS_H
#define AOCI_SUPPORT_STRINGUTILS_H

#include <string>
#include <vector>

namespace aoci {

/// printf into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders a rectangular table with a header row, padding each column to
/// its widest cell. Every row must have the same number of cells as
/// \p Header. Columns after the first are right-aligned.
std::string renderTable(const std::vector<std::string> &Header,
                        const std::vector<std::vector<std::string>> &Rows);

/// Formats a signed percentage with one decimal, e.g. "+5.3%" / "-4.2%".
std::string formatPercent(double Percent);

/// The lower bound parseReal enforces.
enum class RealFloor { None, NonNegative, Positive };

/// Parses all of \p Text as a finite real number respecting \p Bound: no
/// leading whitespace, no trailing characters, no nan or inf. On bad
/// input returns false, leaves \p Out alone and sets \p Error to a
/// diagnostic that quotes \p Text.
bool parseReal(const std::string &Text, RealFloor Bound, double &Out,
               std::string &Error);

} // namespace aoci

#endif // AOCI_SUPPORT_STRINGUTILS_H
