//===- support/StringUtils.h - Formatting helpers --------------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style std::string formatting and small numeric renderers shared by
/// the table printers and the bench harnesses.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_SUPPORT_STRINGUTILS_H
#define DYNFB_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <vector>

namespace dynfb {

/// printf-style formatting into a std::string.
std::string format(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Strips leading and trailing ASCII whitespace.
std::string trim(const std::string &S);

/// Splits \p S at every occurrence of \p Sep; adjacent separators yield
/// empty parts, and an empty input yields no parts.
std::vector<std::string> splitString(const std::string &S, char Sep);

/// Renders \p Value with \p Decimals fractional digits, e.g. 12.345 -> "12.3".
std::string formatDouble(double Value, int Decimals = 2);

/// Renders an integer with thousands separators, e.g. 15471616 ->
/// "15,471,616" (matching the typography of the paper's tables).
std::string withThousandsSep(uint64_t Value);

/// Renders \p Seconds as a compact human-readable duration for logs.
std::string formatSeconds(double Seconds);

/// Levenshtein edit distance between \p A and \p B.
size_t editDistance(const std::string &A, const std::string &B);

/// Returns the candidate closest to \p Word by edit distance, or "" when
/// none is plausibly a typo for it (distance above max(2, |Word|/3)).
/// Powers the "did you mean --x?" hints of strict flag checking.
std::string closestMatch(const std::string &Word,
                         const std::vector<std::string> &Candidates);

/// "unknown <What> '<Name>'", with a "did you mean" hint when one of
/// \p Known is close to \p Name, then "; <KnownLabel>: <Known...>" unless
/// \p KnownLabel is empty.
std::string unknownName(const std::string &What, const std::string &Name,
                        const std::vector<std::string> &Known,
                        const std::string &KnownLabel = "");

} // namespace dynfb

#endif // DYNFB_SUPPORT_STRINGUTILS_H
