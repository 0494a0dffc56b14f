//===- support/Audit.h - Cross-layer invariant auditor -----------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny always-available invariant checker. Subsystems call
/// audit::check() after state transitions that are easy to corrupt
/// silently (code-cache install/evict, OSR/deopt frame remapping,
/// organizer drains); a failed check throws AuditError with a
/// subsystem-qualified message instead of letting a stale pointer or a
/// drifted ledger propagate.
///
/// Checks are compiled in everywhere but gated at runtime: they are on in
/// Debug builds (!NDEBUG) and whenever the environment variable
/// AOCI_AUDIT=1 is set — which is how CI's sanitizer jobs run the whole
/// suite audited — and otherwise cost one branch on a cached flag.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_SUPPORT_AUDIT_H
#define AOCI_SUPPORT_AUDIT_H

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace aoci {
namespace audit {

/// Thrown by audit::check on a violated invariant. Deliberately distinct
/// from assertion failure: it fires in Release builds too when auditing
/// is enabled, and tests can EXPECT_THROW on it.
class AuditError : public std::logic_error {
public:
  explicit AuditError(const std::string &What) : std::logic_error(What) {}
};

namespace detail {
inline bool readEnvEnabled() {
  const char *E = std::getenv("AOCI_AUDIT");
  return E != nullptr && E[0] == '1' && E[1] == '\0';
}
inline bool &enabledFlag() {
#ifdef NDEBUG
  static bool Enabled = readEnvEnabled();
#else
  static bool Enabled = true;
#endif
  return Enabled;
}
} // namespace detail

/// True when invariant checks should run. Debug builds audit
/// unconditionally; Release builds consult AOCI_AUDIT=1 once and cache
/// the answer.
inline bool enabled() { return detail::enabledFlag(); }

/// Test/tool override of the cached flag (e.g. to audit one scope of a
/// Release-built test without touching the environment).
inline void setEnabled(bool On) { detail::enabledFlag() = On; }

/// Turns auditing on for one scope and restores the prior setting on
/// exit, so an audited test does not leak the flag into the rest of its
/// suite.
struct Scope {
  bool Prev;
  Scope() : Prev(enabled()) { setEnabled(true); }
  ~Scope() { setEnabled(Prev); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
};

/// Checks one invariant. No-op unless enabled(); throws AuditError
/// "audit(<where>): <what>" otherwise when \p Cond is false.
inline void check(bool Cond, const char *Where, const std::string &What) {
  if (enabled() && !Cond)
    throw AuditError(std::string("audit(") + Where + "): " + What);
}

} // namespace audit
} // namespace aoci

#endif // AOCI_SUPPORT_AUDIT_H
