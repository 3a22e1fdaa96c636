//===- support/StringUtils.cpp --------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <vector>

using namespace dynfb;

std::string dynfb::format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  const int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Needed <= 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::string Out(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Out.data(), Out.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Out;
}

std::string dynfb::trim(const std::string &S) {
  size_t Begin = 0, End = S.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(S[Begin])))
    ++Begin;
  while (End > Begin && std::isspace(static_cast<unsigned char>(S[End - 1])))
    --End;
  return S.substr(Begin, End - Begin);
}

std::vector<std::string> dynfb::splitString(const std::string &S, char Sep) {
  std::vector<std::string> Parts;
  if (S.empty())
    return Parts;
  size_t Begin = 0;
  for (size_t I = 0; I <= S.size(); ++I) {
    if (I == S.size() || S[I] == Sep) {
      Parts.push_back(S.substr(Begin, I - Begin));
      Begin = I + 1;
    }
  }
  return Parts;
}

std::string dynfb::formatDouble(double Value, int Decimals) {
  return format("%.*f", Decimals, Value);
}

std::string dynfb::withThousandsSep(uint64_t Value) {
  std::string Digits = format("%llu", static_cast<unsigned long long>(Value));
  std::string Out;
  const size_t Len = Digits.size();
  for (size_t I = 0; I < Len; ++I) {
    if (I != 0 && (Len - I) % 3 == 0)
      Out.push_back(',');
    Out.push_back(Digits[I]);
  }
  return Out;
}

size_t dynfb::editDistance(const std::string &A, const std::string &B) {
  std::vector<size_t> Row(B.size() + 1);
  for (size_t J = 0; J <= B.size(); ++J)
    Row[J] = J;
  for (size_t I = 1; I <= A.size(); ++I) {
    size_t Diag = Row[0];
    Row[0] = I;
    for (size_t J = 1; J <= B.size(); ++J) {
      const size_t Sub = Diag + (A[I - 1] != B[J - 1]);
      Diag = Row[J];
      Row[J] = std::min({Row[J] + 1, Row[J - 1] + 1, Sub});
    }
  }
  return Row[B.size()];
}

std::string
dynfb::closestMatch(const std::string &Word,
                    const std::vector<std::string> &Candidates) {
  const size_t MaxDistance = std::max<size_t>(2, Word.size() / 3);
  std::string Best;
  size_t BestDistance = MaxDistance + 1;
  for (const std::string &C : Candidates) {
    const size_t D = editDistance(Word, C);
    if (D < BestDistance) {
      BestDistance = D;
      Best = C;
    }
  }
  return Best;
}

std::string dynfb::unknownName(const std::string &What,
                               const std::string &Name,
                               const std::vector<std::string> &Known,
                               const std::string &KnownLabel) {
  const std::string Near = closestMatch(Name, Known);
  std::string Out = "unknown " + What + " '" + Name + "'";
  if (!Near.empty())
    Out += " (did you mean '" + Near + "'?)";
  if (KnownLabel.empty())
    return Out;
  Out += "; " + KnownLabel + ":";
  for (size_t I = 0; I < Known.size(); ++I)
    Out += (I ? ", " : " ") + Known[I];
  return Out;
}

std::string dynfb::formatSeconds(double Seconds) {
  if (Seconds < 1e-3)
    return format("%.1f us", Seconds * 1e6);
  if (Seconds < 1.0)
    return format("%.2f ms", Seconds * 1e3);
  return format("%.2f s", Seconds);
}
