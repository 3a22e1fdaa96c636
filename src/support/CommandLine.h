//===- support/CommandLine.h - Minimal flag parsing ------------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal `--flag=value` / `--flag value` parser for the bench and
/// example binaries. No registration step: callers query typed values with
/// defaults, and unknown-flag detection is available for strict tools.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_SUPPORT_COMMANDLINE_H
#define DYNFB_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <string>
#include <vector>

namespace dynfb {

/// Parsed command line: flags (`--name`, `--name=value`, `--name value`) and
/// positional arguments.
class CommandLine {
public:
  CommandLine(int Argc, const char *const *Argv);

  /// Returns true if `--name` was present (with or without a value).
  bool has(const std::string &Name) const;

  /// Typed accessors; return \p Default when the flag is absent. A flag
  /// present without a value yields the default for numeric accessors and
  /// true for getBool.
  std::string getString(const std::string &Name,
                        const std::string &Default) const;
  int64_t getInt(const std::string &Name, int64_t Default) const;
  double getDouble(const std::string &Name, double Default) const;
  bool getBool(const std::string &Name, bool Default) const;

  const std::vector<std::string> &positional() const { return Positional; }

  /// Returns the names of flags never queried via the accessors above --
  /// used by strict tools to reject typos.
  std::vector<std::string> unqueriedFlags() const;

  /// Returns the names of flags given more than once, each once, in order
  /// of first appearance. The accessors read only the first occurrence.
  std::vector<std::string> repeatedFlags() const;

private:
  struct Flag {
    std::string Name;
    std::string Value;
    bool HasValue;
    mutable bool Queried;
  };
  const Flag *find(const std::string &Name) const;

  std::vector<Flag> Flags;
  std::vector<std::string> Positional;
};

/// Strict-mode check for tools: fails on any flag given more than once, and
/// on any present flag that is neither in \p KnownFlags nor already queried
/// through the typed accessors (the latter lets branching tools list only
/// their common flags). Prints one line per repeated flag to stderr, then
/// one diagnostic per unknown flag -- with a "did you mean" hint against
/// \p KnownFlags when an accepted flag is a plausible typo target -- plus a
/// pointer at \p UsageHint. Returns true when the command line is clean.
bool rejectUnknownFlags(const CommandLine &CL, const std::string &Tool,
                        const std::vector<std::string> &KnownFlags,
                        const std::string &UsageHint = "--help");

} // namespace dynfb

#endif // DYNFB_SUPPORT_COMMANDLINE_H
