//===- support/CommandLine.cpp --------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace dynfb;

CommandLine::CommandLine(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.size() < 3 || Arg[0] != '-' || Arg[1] != '-') {
      Positional.push_back(std::move(Arg));
      continue;
    }
    std::string Body = Arg.substr(2);
    const size_t Eq = Body.find('=');
    if (Eq != std::string::npos) {
      Flags.push_back(
          {Body.substr(0, Eq), Body.substr(Eq + 1), true, false});
      continue;
    }
    // `--name value` form: consume the next token if it does not look like
    // another flag.
    if (I + 1 < Argc) {
      std::string Next = Argv[I + 1];
      if (Next.size() < 2 || Next[0] != '-' || Next[1] != '-') {
        Flags.push_back({std::move(Body), std::move(Next), true, false});
        ++I;
        continue;
      }
    }
    Flags.push_back({std::move(Body), "", false, false});
  }
}

const CommandLine::Flag *CommandLine::find(const std::string &Name) const {
  const Flag *First = nullptr;
  for (const Flag &F : Flags)
    if (F.Name == Name) {
      F.Queried = true;
      if (!First)
        First = &F;
    }
  return First;
}

bool CommandLine::has(const std::string &Name) const {
  return find(Name) != nullptr;
}

std::string CommandLine::getString(const std::string &Name,
                                   const std::string &Default) const {
  const Flag *F = find(Name);
  return F && F->HasValue ? F->Value : Default;
}

int64_t CommandLine::getInt(const std::string &Name, int64_t Default) const {
  const Flag *F = find(Name);
  if (!F || !F->HasValue)
    return Default;
  return std::strtoll(F->Value.c_str(), nullptr, 10);
}

double CommandLine::getDouble(const std::string &Name, double Default) const {
  const Flag *F = find(Name);
  if (!F || !F->HasValue)
    return Default;
  return std::strtod(F->Value.c_str(), nullptr);
}

bool CommandLine::getBool(const std::string &Name, bool Default) const {
  const Flag *F = find(Name);
  if (!F)
    return Default;
  if (!F->HasValue)
    return true;
  return F->Value == "1" || F->Value == "true" || F->Value == "yes" ||
         F->Value == "on";
}

std::vector<std::string> CommandLine::unqueriedFlags() const {
  std::vector<std::string> Out;
  for (const Flag &F : Flags)
    if (!F.Queried && std::find(Out.begin(), Out.end(), F.Name) == Out.end())
      Out.push_back(F.Name);
  return Out;
}

std::vector<std::string> CommandLine::repeatedFlags() const {
  std::vector<std::string> Out;
  for (size_t I = 0; I < Flags.size(); ++I) {
    const std::string &Name = Flags[I].Name;
    const auto Same = [&](const Flag &F) { return F.Name == Name; };
    if (std::none_of(Flags.begin(), Flags.begin() + I, Same) &&
        std::any_of(Flags.begin() + I + 1, Flags.end(), Same))
      Out.push_back(Name);
  }
  return Out;
}

bool dynfb::rejectUnknownFlags(const CommandLine &CL,
                               const std::string &Tool,
                               const std::vector<std::string> &KnownFlags,
                               const std::string &UsageHint) {
  // A repeated flag is refused rather than resolved: the accessors would
  // silently take its first value.
  const std::vector<std::string> Repeated = CL.repeatedFlags();
  for (const std::string &Name : Repeated)
    std::fprintf(stderr, "%s: flag '--%s' given more than once\n",
                 Tool.c_str(), Name.c_str());
  std::vector<std::string> Unknown;
  for (const std::string &Name : CL.unqueriedFlags())
    if (std::find(KnownFlags.begin(), KnownFlags.end(), Name) ==
        KnownFlags.end())
      Unknown.push_back(Name);
  if (Unknown.empty())
    return Repeated.empty();
  for (const std::string &Name : Unknown) {
    const std::string Suggestion = closestMatch(Name, KnownFlags);
    if (Suggestion.empty())
      std::fprintf(stderr, "%s: unknown flag '--%s'\n", Tool.c_str(),
                   Name.c_str());
    else
      std::fprintf(stderr, "%s: unknown flag '--%s' (did you mean '--%s'?)\n",
                   Tool.c_str(), Name.c_str(), Suggestion.c_str());
  }
  std::fprintf(stderr, "%s: run with %s for usage\n", Tool.c_str(),
               UsageHint.c_str());
  return false;
}
