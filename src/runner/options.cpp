#include "runner/options.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "comm/fault.hpp"
#include "comm/network_model.hpp"
#include "la/device.hpp"
#include "runner/harness.hpp"
#include "runner/registry.hpp"
#include "serve/arrival.hpp"
#include "serve/batching.hpp"
#include "support/check.hpp"

namespace nadmm::runner {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

[[noreturn]] void reject(const std::string& name, const std::string& value,
                         const std::string& why) {
  throw InvalidArgument(name + ": invalid value '" + value + "' (" + why +
                        ")");
}

}  // namespace

std::int64_t parse_int_in(const std::string& name, const std::string& text,
                          std::int64_t min, std::int64_t max) {
  std::int64_t v = min;
  bool fits = true;
  try {
    std::size_t pos = 0;
    v = std::stoll(text, &pos);
    if (pos != text.size()) reject(name, text, "expected an integer");
  } catch (const InvalidArgument&) {
    throw;
  } catch (const std::out_of_range&) {
    fits = false;
  } catch (const std::exception&) {
    reject(name, text, "expected an integer");
  }
  if (!fits || v < min || v > max) {
    reject(name, text, "must be in [" + std::to_string(min) + ", " +
                           std::to_string(max) + "]");
  }
  return v;
}

namespace {

double parse_double(const std::string& name, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) reject(name, value, "expected a number");
    return v;
  } catch (const InvalidArgument&) {
    throw;
  } catch (const std::exception&) {
    reject(name, value, "expected a number");
  }
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

/// Accepts the values `parse` accepts; its error is the reason given.
template <class Parse>
OptionValidator v_parses(Parse parse) {
  return [parse](const std::string& name, const std::string& value) {
    try {
      static_cast<void>(parse(value));
    } catch (const std::exception& e) {
      reject(name, value, e.what());
    }
  };
}

/// The rank and the value text of a "<rank>:<value>" spec; nullopt for
/// "none".
std::optional<std::pair<int, std::string>> split_rank_spec(
    const std::string& name, const std::string& spec,
    const std::string& value_name) {
  if (spec == "none") return std::nullopt;
  const auto colon = spec.find(':');
  if (colon == std::string::npos) {
    reject(name, spec, "expected none or <rank>:<" + value_name + ">");
  }
  const int rank = parse_int_as<int>(name, spec.substr(0, colon));
  if (rank < 0) reject(name, spec, "rank must be >= 0");
  return std::make_pair(rank, spec.substr(colon + 1));
}

}  // namespace

std::string to_string(OptType type) {
  switch (type) {
    case OptType::kInt: return "int";
    case OptType::kDouble: return "double";
    case OptType::kString: return "string";
    case OptType::kFlag: return "flag";
  }
  return "?";
}

OptionSet& OptionSet::add(OptionSpec spec) {
  NADMM_CHECK(!spec.name.empty(), "option spec needs a name");
  NADMM_CHECK(find(spec.name) == nullptr,
              "option --" + spec.name + " specified twice");
  specs_.push_back(std::move(spec));
  return *this;
}

OptionSet& OptionSet::add_int(const std::string& name,
                              std::int64_t default_value,
                              const std::string& help,
                              OptionValidator validator) {
  return add({name, OptType::kInt, std::to_string(default_value), help,
              std::move(validator)});
}

OptionSet& OptionSet::add_double(const std::string& name, double default_value,
                                 const std::string& help,
                                 OptionValidator validator) {
  return add({name, OptType::kDouble, fmt_double(default_value), help,
              std::move(validator)});
}

OptionSet& OptionSet::add_string(const std::string& name,
                                 const std::string& default_value,
                                 const std::string& help,
                                 OptionValidator validator) {
  return add(
      {name, OptType::kString, default_value, help, std::move(validator)});
}

OptionSet& OptionSet::add_flag(const std::string& name,
                               const std::string& help) {
  return add({name, OptType::kFlag, "false", help, {}});
}

OptionSet& OptionSet::extend(const OptionSet& other) {
  for (const auto& spec : other.specs_) add(spec);
  return *this;
}

void OptionSet::register_into(CliParser& cli) const {
  for (const auto& spec : specs_) {
    const std::string flag = "--" + spec.name;
    switch (spec.type) {
      case OptType::kInt:
        cli.add_int(spec.name,
                    parse_int_as<std::int64_t>(flag, spec.default_value),
                    spec.help);
        break;
      case OptType::kDouble:
        cli.add_double(spec.name, parse_double(flag, spec.default_value),
                       spec.help);
        break;
      case OptType::kString:
        cli.add_string(spec.name, spec.default_value, spec.help);
        break;
      case OptType::kFlag:
        cli.add_flag(spec.name, spec.help);
        break;
    }
  }
}

void OptionSet::validate(const CliParser& cli) const {
  for (const auto& spec : specs_) {
    if (!spec.validator) continue;
    std::string value;
    switch (spec.type) {
      case OptType::kInt:
        value = std::to_string(cli.get_int(spec.name));
        break;
      case OptType::kDouble:
        value = fmt_double(cli.get_double(spec.name));
        break;
      case OptType::kString:
        value = cli.get_string(spec.name);
        break;
      case OptType::kFlag:
        value = cli.get_flag(spec.name) ? "true" : "false";
        break;
    }
    spec.validator("--" + spec.name, value);
  }
}

const OptionSpec* OptionSet::find(const std::string& name) const {
  const auto it = std::find_if(
      specs_.begin(), specs_.end(),
      [&](const OptionSpec& spec) { return spec.name == name; });
  return it == specs_.end() ? nullptr : &*it;
}

// ---------------------------------------------------------------------------
// Validators.
// ---------------------------------------------------------------------------

OptionValidator v_int_min(std::int64_t min) {
  return [min](const std::string& name, const std::string& value) {
    if (parse_int_as<std::int64_t>(name, value) < min) {
      reject(name, value, "must be >= " + std::to_string(min));
    }
  };
}

OptionValidator v_double_min(double min, bool inclusive) {
  return [min, inclusive](const std::string& name, const std::string& value) {
    const double v = parse_double(name, value);
    if (inclusive ? v < min : v <= min) {
      reject(name, value,
             std::string("must be ") + (inclusive ? ">= " : "> ") +
                 fmt_double(min));
    }
  };
}

OptionValidator v_one_of(std::vector<std::string> allowed) {
  std::string expected;
  for (const auto& a : allowed) {
    if (!expected.empty()) expected += '|';
    expected += a;
  }
  return [allowed = std::move(allowed), expected = std::move(expected)](
             const std::string& name, const std::string& value) {
    if (std::find(allowed.begin(), allowed.end(), value) == allowed.end()) {
      reject(name, value, "expected " + expected);
    }
  };
}

OptionValidator v_dataset() {
  return [](const std::string& name, const std::string& value) {
    static const std::vector<std::string> kNamed = {"higgs", "mnist", "cifar",
                                                    "e18", "blobs"};
    if (value.rfind("libsvm:", 0) == 0) {
      if (value.size() == 7) reject(name, value, "libsvm: needs a path");
      return;
    }
    if (std::find(kNamed.begin(), kNamed.end(), value) == kNamed.end()) {
      reject(name, value, "expected higgs|mnist|cifar|e18|blobs|libsvm:<path>");
    }
  };
}

OptionValidator v_device_list() {
  return [](const std::string& name, const std::string& value) {
    if (value.empty()) return;  // unset alias
    std::size_t begin = 0;
    while (begin <= value.size()) {
      const auto end = value.find_first_of(",+", begin);
      const std::string token =
          trim(value.substr(begin, end == std::string::npos ? std::string::npos
                                                            : end - begin));
      if (token.empty()) reject(name, value, "empty device entry");
      try {
        static_cast<void>(la::device_from_string(token));
      } catch (const std::exception& e) {
        reject(name, value, e.what());
      }
      if (end == std::string::npos) break;
      begin = end + 1;
    }
  };
}

OptionValidator v_network() { return v_parses(comm::network_from_string); }

OptionValidator v_straggler() {
  return [](const std::string& name, const std::string& value) {
    static_cast<void>(parse_straggler(name, value));
  };
}

OptionValidator v_partition() {
  return v_one_of({"contiguous", "strided", "weighted"});
}

OptionValidator v_fault() { return v_parses(comm::FaultSpec::parse); }

OptionValidator v_kill() {
  return [](const std::string& name, const std::string& value) {
    static_cast<void>(parse_kill(name, value));
  };
}

OptionValidator v_solver() {
  return v_parses([](const std::string& value) -> const SolverInfo& {
    return SolverRegistry::instance().info(value);
  });
}

OptionValidator v_arrival() { return v_parses(serve::make_arrival); }

OptionValidator v_batch_policy() { return v_parses(serve::make_batch_policy); }

OptionValidator v_byte_size() {
  return [](const std::string& name, const std::string& value) {
    static_cast<void>(parse_byte_size(name, value));
  };
}

std::optional<StragglerSpec> parse_straggler(const std::string& name,
                                             const std::string& spec) {
  const auto parts = split_rank_spec(name, spec, "slowdown");
  if (!parts) return std::nullopt;
  const StragglerSpec out{parts->first, parse_double(name, parts->second)};
  if (out.slowdown < 1.0) reject(name, spec, "slowdown must be >= 1");
  return out;
}

std::optional<KillSpec> parse_kill(const std::string& name,
                                   const std::string& spec) {
  const auto parts = split_rank_spec(name, spec, "epoch");
  if (!parts) return std::nullopt;
  const KillSpec out{parts->first, parse_int_as<int>(name, parts->second)};
  if (out.epoch < 1) reject(name, spec, "epoch must be >= 1");
  return out;
}

std::size_t parse_byte_size(const std::string& name,
                            const std::string& value) {
  if (value.empty()) reject(name, value, "must not be empty");
  // stoull would silently wrap "-1" to 2^64−1.
  if (value.find('-') != std::string::npos) {
    reject(name, value, "must be non-negative");
  }
  std::size_t multiplier = 1;
  std::string digits = value;
  switch (digits.back()) {
    case 'k': case 'K': multiplier = 1ull << 10; digits.pop_back(); break;
    case 'm': case 'M': multiplier = 1ull << 20; digits.pop_back(); break;
    case 'g': case 'G': multiplier = 1ull << 30; digits.pop_back(); break;
    default: break;
  }
  try {
    std::size_t pos = 0;
    const auto v = std::stoull(digits, &pos);
    NADMM_CHECK(pos == digits.size(), "trailing characters");
    NADMM_CHECK(v <= SIZE_MAX / multiplier, "size overflows");
    return v * multiplier;
  } catch (const std::exception&) {
    reject(name, value, "expected bytes with optional k/m/g suffix");
  }
}

// ---------------------------------------------------------------------------
// The knob table and the shared option tables.
// ---------------------------------------------------------------------------

namespace {

/// `v` as text; doubles as printf("%.<precision>g") would write them.
template <class T>
std::string to_text(const T& v, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

constexpr bool kSpec = true;  // the fingerprint key is also a `.sweep` key

/// The row for `member`, set by run flag `flag` ("" for none) and
/// written into the fingerprint as `key` at `slot` ("" and -1 for none).
template <class T>
Knob knob(std::string flag, T ExperimentConfig::*member, std::string help,
          OptionValidator validator = {}, std::string key = "", int slot = -1,
          bool in_spec = false) {
  const OptType type = std::is_same_v<T, std::string> ? OptType::kString
                       : std::is_same_v<T, double>    ? OptType::kDouble
                                                      : OptType::kInt;
  const auto set = [member](ExperimentConfig& config, const std::string& name,
                            const std::string& text) {
    if constexpr (std::is_same_v<T, std::string>) {
      config.*member = text;
    } else if constexpr (std::is_same_v<T, double>) {
      config.*member = parse_double(name, text);
    } else {
      config.*member = parse_int_as<T>(name, text);
    }
  };
  if constexpr (std::is_integral_v<T>) {
    // The flag accepts only what fits the member.
    validator = [check = std::move(validator)](const std::string& name,
                                               const std::string& value) {
      if (check) check(name, value);
      static_cast<void>(parse_int_as<T>(name, value));
    };
  }
  const auto get = [member](const ExperimentConfig& config) {
    return to_text(config.*member, 17);
  };
  return {{std::move(flag), type, to_text(ExperimentConfig{}.*member, 6),
           std::move(help), std::move(validator)},
          std::move(key), in_spec, slot, set, get};
}

/// `k` as a second flag for a member another row sets: empty by default,
/// so the other flag decides unless this one is given.
Knob alias(Knob k) {
  k.flag.default_value.clear();
  return k;
}

/// The value `cli` parsed for `spec`, doubles exact.
std::string cli_text(const CliParser& cli, const OptionSpec& spec) {
  switch (spec.type) {
    case OptType::kInt: return std::to_string(cli.get_int(spec.name));
    case OptType::kDouble: return to_text(cli.get_double(spec.name), 17);
    default: return cli.get_string(spec.name);
  }
}

}  // namespace

const std::vector<Knob>& scenario_knobs() {
  using C = ExperimentConfig;
  static const std::vector<Knob> knobs = {
      knob("dataset", &C::dataset, "higgs|mnist|cifar|e18|blobs|libsvm:<path>",
           v_dataset()),
      knob("n-train", &C::n_train, "training samples", v_int_min(1), "n_train",
           0, kSpec),
      knob("n-test", &C::n_test, "test samples", v_int_min(0), "n_test", 1,
           kSpec),
      knob("e18-features", &C::e18_features, "feature dim for e18/blobs",
           v_int_min(1), "e18_features", 2, kSpec),
      knob("seed", &C::seed, "dataset generator seed", v_int_min(0), "seed", 3,
           kSpec),
      knob("workers", &C::workers, "simulated cluster size", v_int_min(1)),
      knob("device", &C::device,
           "device model (p100|cpu|<gflops>[:<gbytes_per_s>]); a "
           "','/'+'-separated list rates ranks individually",
           v_device_list()),
      alias(knob("devices", &C::device,
                 "per-rank device list (alias for --device, matching the "
                 "sweep axis name)",
                 v_device_list())),
      knob("network", &C::network, "network model (ib100|eth10|eth1|wan|ideal)",
           v_network()),
      knob("penalty", &C::penalty, "ADMM penalty rule (fixed|rb|sps)",
           v_one_of({"fixed", "rb", "sps"})),
      knob("lambda", &C::lambda, "l2 regularization", v_double_min(0.0)),
      knob("rho0", &C::rho0, "initial ADMM penalty rho_0",
           v_double_min(0.0, /*inclusive=*/false), "rho0", 4),
      knob("straggler", &C::straggler,
           "inject a straggler: <rank>:<slowdown> (none disables)",
           v_straggler()),
      knob("partition", &C::partition,
           "shard plan across ranks: contiguous|strided|weighted "
           "(weighted sizes shards by per-rank device gflops)",
           v_partition()),
      knob("iterations", &C::iterations, "outer iterations (epochs)",
           v_int_min(1), "iterations", 5, kSpec),
      knob("cg-iterations", &C::cg_iterations, "CG budget per Newton step",
           v_int_min(1), "cg_iterations", 6, kSpec),
      knob("cg-tol", &C::cg_tol, "CG relative tolerance",
           v_double_min(0.0, /*inclusive=*/false), "cg_tol", 7, kSpec),
      knob("line-search", &C::line_search_iterations,
           "line-search iteration budget", v_int_min(1),
           "line_search_iterations", 8, kSpec),
      knob("", &C::local_newton_steps, "", {}, "local_newton_steps", 9),
      knob("objective-target", &C::objective_target,
           "stop once F(z) <= target (<= 0 disables)", {}, "objective_target",
           10, kSpec),
      knob("", &C::evaluate_accuracy, "", {}, "evaluate_accuracy", 11),
      knob("staleness", &C::staleness, "async-admm bounded-staleness (rounds)",
           v_int_min(1), "staleness", 19, kSpec),
      knob("sync-every", &C::sync_every,
           "stale-sync-admm barrier period (rounds)", v_int_min(1),
           "sync_every", 20, kSpec),
      knob("fault", &C::fault,
           "async-engine link faults: none or "
           "drop:<p>[,dup:<p>][,reorder:<p>][,corrupt:<p>]",
           v_fault()),
      knob("kill", &C::kill,
           "kill a rank after an epoch and rejoin it from the last "
           "checkpoint: <rank>:<epoch> (none disables; needs "
           "--checkpoint-every > 0)",
           v_kill(), "kill", 21, kSpec),
      knob("checkpoint-every", &C::checkpoint_every,
           "coordinator checkpoint period in applied updates (0 = off)",
           v_int_min(0), "checkpoint_every", 22, kSpec),
      knob("sgd-batch", &C::sgd_batch, "sync-sgd minibatch size", v_int_min(1),
           "sgd_batch", 12),
      knob("sgd-step", &C::sgd_step, "sync-sgd step size",
           v_double_min(0.0, /*inclusive=*/false), "sgd_step", 13),
      knob("dane-epochs", &C::dane_epochs, "InexactDANE/AIDE epoch cap",
           v_int_min(1), "dane_epochs", 14),
      knob("svrg-outer", &C::svrg_outer, "DANE inner SVRG budget",
           v_int_min(1), "svrg_outer", 15),
      knob("fo-step", &C::fo_step,
           "single-node first-order step size (0 = rule default)",
           v_double_min(0.0), "fo_step", 16),
      knob("gradient-tol", &C::gradient_tol,
           "single-node gradient-norm stop (< 0 = solver default)", {},
           "gradient_tol", 17),
      knob("omp-threads", &C::omp_threads, "OpenMP threads per rank (0 = auto)",
           v_int_min(0), "omp_threads", 18),
  };
  return knobs;
}

const OptionSet& scenario_options() {
  static const OptionSet specs = [] {
    OptionSet s;
    for (const Knob& k : scenario_knobs()) {
      if (!k.flag.name.empty()) s.add(k.flag);
    }
    return s;
  }();
  return specs;
}

ExperimentConfig config_from_cli(const OptionSet& opts, const CliParser& cli) {
  ExperimentConfig config;
  for (const Knob& k : scenario_knobs()) {
    if (k.flag.name.empty() || opts.find(k.flag.name) == nullptr) continue;
    const std::string text = cli_text(cli, k.flag);
    if (!text.empty()) k.set(config, "--" + k.flag.name, text);
  }
  return config;
}

const OptionSet& serving_options() {
  static const OptionSet specs = [] {
    OptionSet s;
    s.add_string("arrival", "poisson:1000",
                 "arrival model: poisson[:<rate>] | "
                 "diurnal[:<mean>[:<amp>[:<period>]]] | "
                 "bursty[:<base>[:<burst>[:<period>[:<duty>]]]]",
                 v_arrival());
    s.add_string("batch", "immediate",
                 "batch policy: immediate | size:<B> | deadline:<B>:<seconds>",
                 v_batch_policy());
    s.add_int("requests", 10000, "synthetic requests to serve", v_int_min(0));
    s.add_double("dispatch-overhead", 1e-4,
                 "fixed per-dispatch cost in seconds (kernel launch + result "
                 "framing); the term batching amortizes",
                 v_double_min(0.0));
    return s;
  }();
  return specs;
}

// ---------------------------------------------------------------------------
// Solver-knob catalog.
// ---------------------------------------------------------------------------

KnobInfo describe_knob(const std::string& name) {
  const OptionSpec* spec = scenario_options().find(name);
  if (spec == nullptr) spec = serving_options().find(name);
  NADMM_CHECK(spec != nullptr,
              "solver knob '" + name +
                  "' is not a registered CLI option — add it to "
                  "runner::scenario_options()");
  return {spec->name, to_string(spec->type), spec->default_value, spec->help};
}

}  // namespace nadmm::runner
