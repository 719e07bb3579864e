// Motif-model flags shared by tmotif_count and tmotif_stream: --model,
// --k, --max-nodes, --dc, --dw, --induced, --cdg and --consecutive — their
// parsing, their range checks and their mapping to EnumerationOptions.
// Each tool keeps its own --help text. A published model's preset takes
// only --k, --max-nodes and the bound it uses; any other model flag with a
// preset is a usage error, never silently dropped.

#ifndef TMOTIF_TOOLS_MODEL_FLAGS_H_
#define TMOTIF_TOOLS_MODEL_FLAGS_H_

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "common/parse_int.h"
#include "core/enumerator.h"
#include "core/models/model_info.h"

namespace tmotif {

/// The value of `arg` after `prefix`, or nullptr when `arg` does not start
/// with it ("--k=3" after "--k=" is "3").
inline const char* FlagValue(const char* arg, const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
}

struct ModelFlags {
  std::string model = "custom";  // kovanen|song|hulovatyy|paranjape|custom.
  int k = 3;
  int max_nodes = 0;  // 0 = k.
  /// Unset when the flag is not given (no bound); 0 is a valid bound.
  std::optional<long long> dc;
  std::optional<long long> dw;
  std::optional<std::string> induced;  // none|static|window; unset = none.
  bool cdg = false;
  bool consecutive = false;
};

/// Consumes `arg` and returns true when it is one of the model flags;
/// `*valid` turns false when a numeric value does not parse.
inline bool ParseModelFlag(const char* arg, ModelFlags* flags, bool* valid) {
  const auto value = [&](const char* prefix) { return FlagValue(arg, prefix); };
  const auto bound = [&](const char* v, std::optional<long long>* out) {
    long long parsed = 0;
    *valid = ParseInt(v, &parsed);
    *out = parsed;
  };
  if (const char* v = value("--model=")) flags->model = v;
  else if (const char* v = value("--k=")) *valid = ParseInt(v, &flags->k);
  else if (const char* v = value("--max-nodes=")) *valid = ParseInt(v, &flags->max_nodes);
  else if (const char* v = value("--dc=")) bound(v, &flags->dc);
  else if (const char* v = value("--dw=")) bound(v, &flags->dw);
  else if (const char* v = value("--induced=")) flags->induced = v;
  else if (std::strcmp(arg, "--cdg") == 0) flags->cdg = true;
  else if (std::strcmp(arg, "--consecutive") == 0) flags->consecutive = true;
  else return false;
  return true;
}

/// Range checks of the parsed flags: prints the first violation to stderr
/// and returns false.
inline bool ValidateModelFlags(const ModelFlags& flags) {
  if (flags.k < 1 || flags.k > 8) {
    std::fprintf(stderr, "--k must be in [1, 8]\n");
    return false;
  }
  if (flags.max_nodes != 0 &&
      (flags.max_nodes < 2 || flags.max_nodes > flags.k + 1)) {
    std::fprintf(stderr, "--max-nodes must be in [2, k+1]\n");
    return false;
  }
  if (flags.dc.has_value() && *flags.dc < 0) {
    std::fprintf(stderr, "--dc must be >= 0\n");
    return false;
  }
  if (flags.dw.has_value() && *flags.dw < 0) {
    std::fprintf(stderr, "--dw must be >= 0\n");
    return false;
  }
  return true;
}

/// Maps the flags to enumeration options: a published model's preset, or
/// the custom configuration they spell out. Prints the problem to stderr
/// and returns false for an unknown model or --induced kind, a preset
/// missing the bound it needs, or a preset given a flag it does not use.
inline bool BuildModelOptions(const ModelFlags& flags,
                              EnumerationOptions* options) {
  const int max_nodes = flags.max_nodes > 0 ? flags.max_nodes : flags.k;
  if (flags.model != "custom") {
    ModelId model;
    if (flags.model == "kovanen") model = ModelId::kKovanen;
    else if (flags.model == "song") model = ModelId::kSong;
    else if (flags.model == "hulovatyy") model = ModelId::kHulovatyy;
    else if (flags.model == "paranjape") model = ModelId::kParanjape;
    else {
      std::fprintf(stderr, "unknown model: %s\n", flags.model.c_str());
      return false;
    }
    const ModelAspects aspects = GetModelAspects(model);
    if (aspects.uses_delta_c && !flags.dc.has_value()) {
      std::fprintf(stderr, "%s requires --dc\n", aspects.name);
      return false;
    }
    if (aspects.uses_delta_w && !flags.dw.has_value()) {
      std::fprintf(stderr, "%s requires --dw\n", aspects.name);
      return false;
    }
    const char* unused = nullptr;
    if (flags.dc.has_value() && !aspects.uses_delta_c) unused = "--dc";
    else if (flags.dw.has_value() && !aspects.uses_delta_w) unused = "--dw";
    else if (flags.induced.has_value()) unused = "--induced";
    else if (flags.cdg) unused = "--cdg";
    else if (flags.consecutive) unused = "--consecutive";
    if (unused != nullptr) {
      std::fprintf(stderr,
                   "--model=%s (%s) does not take %s; use --model=custom "
                   "to combine the predicates freely\n",
                   flags.model.c_str(), aspects.name, unused);
      return false;
    }
    *options = OptionsForModel(model, flags.k, max_nodes,
                               flags.dc.value_or(0), flags.dw.value_or(0));
    return true;
  }
  options->num_events = flags.k;
  options->max_nodes = max_nodes;
  if (flags.dc.has_value()) options->timing.delta_c = *flags.dc;
  if (flags.dw.has_value()) options->timing.delta_w = *flags.dw;
  options->cdg_restriction = flags.cdg;
  options->consecutive_events_restriction = flags.consecutive;
  const std::string induced = flags.induced.value_or("none");
  if (induced == "none") {
    options->inducedness = Inducedness::kNone;
  } else if (induced == "static") {
    options->inducedness = Inducedness::kStatic;
  } else if (induced == "window") {
    options->inducedness = Inducedness::kTemporalWindow;
  } else {
    std::fprintf(stderr, "unknown --induced kind: %s\n", induced.c_str());
    return false;
  }
  return true;
}

}  // namespace tmotif

#endif  // TMOTIF_TOOLS_MODEL_FLAGS_H_
