// Declarative CLI option specs shared by every `nadmm` subcommand.
//
// Before this header, each subcommand hand-registered its flags against
// CliParser and validated values ad hoc (or not at all), so run/sweep
// drifted apart and a malformed `--device` surfaced deep inside the
// harness with no flag name attached. An OptionSpec carries the flag's
// name, type, default, help line, and a validator closure; an OptionSet
// is an ordered collection of specs that registers itself into a
// CliParser (which generates `--help` from it, in declaration order) and
// validates the parsed values up front — every rejection names the
// offending flag and echoes the bad value.
//
// The scenario flags are rows of scenario_knobs(), which also give each
// ExperimentConfig member its `.sweep` key and fingerprint slot, so a
// spec and a flag cannot disagree about a value.
//
// The same spec table doubles as the solver-knob catalog: the registry's
// per-solver knob names resolve to typed KnobInfo entries here, so
// `nadmm list --json` and the generated README solver table cannot
// drift from what the flags actually accept.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "support/cli.hpp"

namespace nadmm::runner {

struct ExperimentConfig;

enum class OptType { kInt, kDouble, kString, kFlag };
std::string to_string(OptType type);

/// Checks a parsed textual value; throws InvalidArgument naming `name`
/// (as the caller shows it: "--flag", or "sweep key 'k'") when the value
/// is out of domain.
using OptionValidator =
    std::function<void(const std::string& name, const std::string& value)>;

struct OptionSpec {
  std::string name;  ///< flag name without the leading "--"
  OptType type = OptType::kString;
  std::string default_value;  ///< textual, as CliParser stores it
  std::string help;
  OptionValidator validator;  ///< optional domain check
};

/// Ordered, duplicate-free collection of OptionSpecs.
class OptionSet {
 public:
  /// Append one spec; throws InvalidArgument on a duplicate name.
  OptionSet& add(OptionSpec spec);
  OptionSet& add_int(const std::string& name, std::int64_t default_value,
                     const std::string& help, OptionValidator validator = {});
  OptionSet& add_double(const std::string& name, double default_value,
                        const std::string& help,
                        OptionValidator validator = {});
  OptionSet& add_string(const std::string& name,
                        const std::string& default_value,
                        const std::string& help,
                        OptionValidator validator = {});
  OptionSet& add_flag(const std::string& name, const std::string& help);

  /// Append every spec of `other` (duplicates throw).
  OptionSet& extend(const OptionSet& other);

  /// Register all specs into `cli` in declaration order (the order
  /// --help prints).
  void register_into(CliParser& cli) const;

  /// Run every validator against the values `cli` parsed. Throws
  /// InvalidArgument naming the first offending flag.
  void validate(const CliParser& cli) const;

  /// Spec by name, or nullptr when absent.
  [[nodiscard]] const OptionSpec* find(const std::string& name) const;

 private:
  std::vector<OptionSpec> specs_;
};

// ---------------------------------------------------------------------------
// Validator combinators and domain validators.
// ---------------------------------------------------------------------------

OptionValidator v_int_min(std::int64_t min);
OptionValidator v_double_min(double min, bool inclusive = true);
OptionValidator v_one_of(std::vector<std::string> allowed);

OptionValidator v_dataset();      ///< named dataset or libsvm:<path>
OptionValidator v_device_list();  ///< ','/'+'-separated device specs
OptionValidator v_network();      ///< comm::network_from_string presets
OptionValidator v_straggler();    ///< parse_straggler
OptionValidator v_partition();    ///< contiguous|strided|weighted
OptionValidator v_fault();        ///< "none" or comm::FaultSpec::parse spec
OptionValidator v_kill();         ///< parse_kill
OptionValidator v_solver();       ///< registered solver name
OptionValidator v_arrival();      ///< serve/arrival.hpp spec
OptionValidator v_batch_policy(); ///< serve/batching.hpp spec
OptionValidator v_byte_size();    ///< bytes with optional k/m/g suffix

/// `text` as an integer in [min, max], else InvalidArgument naming `name`.
std::int64_t parse_int_in(const std::string& name, const std::string& text,
                          std::int64_t min, std::int64_t max);

/// `text` as a T, rejected (naming `name` and T's limit) when it does not
/// fit: the one conversion every integer flag and `.sweep` value takes.
template <class T>
T parse_int_as(const std::string& name, const std::string& text) {
  using Limits = std::numeric_limits<T>;
  constexpr auto max = std::min<std::uint64_t>(
      Limits::max(), std::numeric_limits<std::int64_t>::max());
  return static_cast<T>(parse_int_in(name, text, Limits::min(),
                                     static_cast<std::int64_t>(max)));
}

/// Parse "0", "1500000", "512m", "2g" (case-insensitive k/m/g suffix).
/// Throws InvalidArgument naming `name` on malformed input.
std::size_t parse_byte_size(const std::string& name, const std::string& value);

/// "none" (nullopt) or <rank>:<slowdown> with rank >= 0, slowdown >= 1;
/// throws InvalidArgument naming `name` otherwise (the harness checks
/// rank < workers).
struct StragglerSpec { int rank; double slowdown; };
std::optional<StragglerSpec> parse_straggler(const std::string& name,
                                             const std::string& spec);
/// "none" (nullopt) or <rank>:<epoch> with rank >= 0, epoch >= 1.
struct KillSpec { int rank; int epoch; };
std::optional<KillSpec> parse_kill(const std::string& name,
                                   const std::string& spec);

// ---------------------------------------------------------------------------
// The knob table and the shared option tables.
// ---------------------------------------------------------------------------

/// One ExperimentConfig member and every surface that names it.
struct Knob {
  /// The run flag (name empty if none); the default is the member's
  /// value in ExperimentConfig{}.
  OptionSpec flag;
  /// The member's name in the fingerprint, and its `.sweep` key when
  /// `in_spec`; empty when a sweep axis sets the member.
  std::string key;
  bool in_spec = false;
  /// Fixed position in spec_fingerprint's base section (-1: none), so
  /// committed fingerprints and journals stay valid.
  int slot = -1;
  /// Parse `text` into the member; malformed numbers throw naming `name`.
  std::function<void(ExperimentConfig&, const std::string& name,
                     const std::string& text)>
      set;
  /// The member as the fingerprint writes it (doubles at %.17g).
  std::function<std::string(const ExperimentConfig&)> get;
};

/// Every ExperimentConfig member, in `nadmm run --help` order.
const std::vector<Knob>& scenario_knobs();

/// The flags of scenario_knobs(): the scenario surface of `nadmm run`.
const OptionSet& scenario_options();

/// Defaults, overridden by each knob flag `opts` registered into `cli`;
/// an empty string keeps the member (an unset --devices keeps --device).
ExperimentConfig config_from_cli(const OptionSet& opts, const CliParser& cli);

/// The serving-scenario surface shared by `nadmm serve` and the sweep's
/// serving mode: arrival/batch specs, request count, dispatch overhead.
const OptionSet& serving_options();

// ---------------------------------------------------------------------------
// Solver-knob catalog (registry introspection).
// ---------------------------------------------------------------------------

/// One solver knob with its CLI type/default/description — resolved from
/// the shared option tables so `nadmm list` cannot drift from the flags.
struct KnobInfo {
  std::string name;
  std::string type;  ///< "int" | "double" | "string" | "flag"
  std::string default_value;
  std::string description;
};

/// KnobInfo for a knob name the registry declares; throws
/// InvalidArgument on names no option table defines.
KnobInfo describe_knob(const std::string& name);

}  // namespace nadmm::runner
