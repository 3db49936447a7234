#include "runner/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>

#include "runner/registry.hpp"
#include "serve/server.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace nadmm::runner {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  for (std::size_t begin = 0; begin <= value.size();) {
    const std::size_t end = std::min(value.find(',', begin), value.size());
    std::string item = trim(value.substr(begin, end - begin));
    if (!item.empty()) out.push_back(std::move(item));
    begin = end + 1;
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_compact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// ';'-joined per-rank wait seconds ("0;1.5;0.25"), empty when the
/// solver reports none. Round-trips through the journal verbatim.
std::string fmt_rank_waits(const std::vector<double>& waits) {
  std::string out;
  for (std::size_t r = 0; r < waits.size(); ++r) {
    if (r > 0) out += ';';
    out += fmt_double(waits[r]);
  }
  return out;
}

/// Sparse "staleness:count" pairs ("0:24;2:7"), empty when unreported.
std::string fmt_staleness_hist(const std::vector<std::uint64_t>& hist) {
  std::string out;
  for (std::size_t s = 0; s < hist.size(); ++s) {
    if (hist[s] == 0) continue;
    if (!out.empty()) out += ';';
    out += std::to_string(s) + ':' + std::to_string(hist[s]);
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ------------------------------------------------------ result columns
//
// columns() is the single definition of every per-scenario column the
// reports carry: its name, where it appears, how its value is formatted
// and how the journal reader restores it. The CSV row, the JSON report,
// the journal line and restore_outcome_line all iterate it, so adding a
// column is one entry.
//
// The journal is one JSON object per line; the writer is this file, so
// the reader is a targeted field extractor rather than a general JSON
// parser. Journal numbers are written with %.17g (round-trips doubles
// exactly; `inf`/`nan` appear as bare tokens, which strtod reads back) —
// that is what makes a resumed report byte-identical to an
// uninterrupted one.

/// Locate the value of `"key": ` in a journal line; npos when absent.
std::size_t find_json_value(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = line.find(needle);
  if (at == std::string::npos) return std::string::npos;
  auto pos = at + needle.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  return pos < line.size() ? pos : std::string::npos;
}

bool json_get_string(const std::string& line, const std::string& key,
                     std::string& out) {
  auto pos = find_json_value(line, key);
  if (pos == std::string::npos || line[pos] != '"') return false;
  ++pos;
  out.clear();
  while (pos < line.size() && line[pos] != '"') {
    char c = line[pos];
    if (c == '\\' && pos + 1 < line.size()) {
      const char e = line[++pos];
      switch (e) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case 'u': {
          // Only \u00XX is ever emitted (see json_escape).
          if (pos + 4 >= line.size()) return false;
          c = static_cast<char>(
              std::strtol(line.substr(pos + 1, 4).c_str(), nullptr, 16));
          pos += 4;
          break;
        }
        default: c = e; break;
      }
    }
    out += c;
    ++pos;
  }
  return pos < line.size();
}

bool json_get_int(const std::string& line, const std::string& key,
                  std::int64_t& out) {
  const auto pos = find_json_value(line, key);
  if (pos == std::string::npos) return false;
  char* end = nullptr;
  out = std::strtoll(line.c_str() + pos, &end, 10);
  return end != line.c_str() + pos;
}

constexpr const char* kJournalKind = "nadmm-sweep-journal";
// Bumped whenever the report columns or the fingerprint serialization
// change; the version history is in docs/SWEEP_FORMAT.md. Older journals
// are rejected on --resume — their fingerprints no longer match either.
constexpr std::int64_t kJournalVersion = 6;

using Metrics = std::map<std::string, std::uint64_t>;

/// RunResult::metrics as the journal/JSON wire form: "name:value;…" in
/// key order. The map never stores zero values (add_metric skips them),
/// so fresh runs and journal restores serialize identically.
std::string fmt_metrics(const Metrics& metrics) {
  std::ostringstream os;
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) os << ';';
    first = false;
    os << name << ':' << value;
  }
  return os.str();
}

bool parse_metrics(const std::string& text, Metrics& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto end = text.find(';', pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    const auto colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0) return false;
    char* num_end = nullptr;
    const std::uint64_t value =
        std::strtoull(item.c_str() + colon + 1, &num_end, 10);
    if (num_end != item.c_str() + item.size()) return false;
    if (value != 0) out[item.substr(0, colon)] = value;
    pos = end + 1;
  }
  return true;
}

enum class Format { kCsv, kJson, kJournal };

/// One value in one output format. Doubles are %.17g, except that JSON
/// has no inf/nan literals and reports them as null; strings are bare in
/// the CSV and quoted + escaped in the JSON and the journal.
template <class T>
std::string format_value(const T& v, Format format) {
  if constexpr (std::is_same_v<T, double>) {
    if (format == Format::kJson && !std::isfinite(v)) return "null";
    return fmt_double(v);
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return format == Format::kCsv ? v : '"' + json_escape(v) + '"';
  } else {
    static_assert(std::is_same_v<T, Metrics>);
    return format_value(fmt_metrics(v), format);
  }
}

/// Read a format_value(…, kJournal) value back from a journal line.
template <class T>
bool read_value(const std::string& line, const std::string& key, T& out) {
  if constexpr (std::is_same_v<T, double>) {
    const auto pos = find_json_value(line, key);
    if (pos == std::string::npos) return false;
    char* end = nullptr;
    out = std::strtod(line.c_str() + pos, &end);
    return end != line.c_str() + pos;
  } else if constexpr (std::is_integral_v<T>) {
    std::int64_t v = 0;
    if (!json_get_int(line, key, v)) return false;
    out = static_cast<T>(v);
    return true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return json_get_string(line, key, out);
  } else {
    std::string text;
    return json_get_string(line, key, text) && parse_metrics(text, out);
  }
}

/// Where a column appears. Report columns go to the JSON report and the
/// journal, and are restored from the journal on resume. Scenario
/// columns describe the grid point and are written for every row;
/// result columns are written for ok rows only — the JSON and the
/// journal omit them on failed rows, the CSV writes their zero value.
enum Where : unsigned { kCsv = 1, kReport = 2, kScenario = 4 };

struct Column {
  std::string name;
  unsigned where;
  std::string csv_zero;  ///< a failed row's CSV cell (result columns)
  std::function<std::string(const ScenarioOutcome&, Format)> write;
  /// Null for derived columns, which are never journaled.
  std::function<bool(const std::string&, ScenarioOutcome&)> restore;
};

/// A column computed from the outcome by `get`.
template <class Get>
Column derived(const std::string& name, unsigned where, Get get) {
  using T = std::decay_t<std::invoke_result_t<Get, const ScenarioOutcome&>>;
  return {name, where, format_value(T{}, Format::kCsv),
          [get](const ScenarioOutcome& o, Format format) {
            return format_value(get(o), format);
          },
          {}};
}

/// A column over the outcome field at the end of a member-pointer path;
/// the journal reader restores it through the same path.
template <class... Members>
Column column(const std::string& name, unsigned where, Members... path) {
  const auto field = [path...](auto& o) -> auto& {
    return (o .* ... .* path);
  };
  Column c = derived(name, where, field);
  c.restore = [field, name](const std::string& line, ScenarioOutcome& o) {
    return read_value(line, name, field(o));
  };
  return c;
}

/// Every column in CSV order; the JSON report and the journal keep the
/// same relative order for theirs.
const std::vector<Column>& columns() {
  using O = ScenarioOutcome;
  using S = Scenario;
  using C = ExperimentConfig;
  using R = core::RunResult;
  constexpr unsigned kAll = kCsv | kReport;
  constexpr unsigned kGrid = kCsv | kScenario;
  // The CSV flattens these entries of the metrics map into columns.
  const auto counter = [](const char* name) {
    return derived(name, kCsv,
                   [name](const O& o) { return o.result.metric(name); });
  };
  static const std::vector<Column> table = {
      column("scenario", kGrid, &O::scenario, &S::index),
      column("solver", kGrid, &O::scenario, &S::solver),
      column("dataset", kGrid, &O::scenario, &S::config, &C::dataset),
      column("n_train", kGrid, &O::scenario, &S::config, &C::n_train),
      column("n_test", kGrid, &O::scenario, &S::config, &C::n_test),
      column("workers", kGrid, &O::scenario, &S::config, &C::workers),
      column("device", kGrid, &O::scenario, &S::config, &C::device),
      column("network", kGrid, &O::scenario, &S::config, &C::network),
      column("penalty", kGrid, &O::scenario, &S::config, &C::penalty),
      column("lambda", kGrid, &O::scenario, &S::config, &C::lambda),
      column("straggler", kGrid, &O::scenario, &S::config, &C::straggler),
      column("partition", kGrid, &O::scenario, &S::config, &C::partition),
      derived("status", kGrid,
              [](const O& o) { return std::string(o.ok ? "ok" : "error"); }),
      column("iterations", kAll, &O::result, &R::iterations),
      column("final_objective", kAll, &O::result, &R::final_objective),
      column("final_test_accuracy", kAll, &O::result,
             &R::final_test_accuracy),
      column("total_sim_seconds", kAll, &O::result, &R::total_sim_seconds),
      column("avg_epoch_sim_seconds", kAll, &O::result,
             &R::avg_epoch_sim_seconds),
      column("total_comm_sim_seconds", kAll, &O::comm_sim_seconds),
      column("max_wait_seconds", kAll, &O::max_wait_seconds),
      column("rank_wait_seconds", kAll, &O::rank_waits),
      column("staleness_hist", kAll, &O::staleness_hist),
      column("peak_dataset_bytes", kAll, &O::peak_dataset_bytes),
      column("arrival", kGrid, &O::scenario, &S::arrival),
      column("batch_policy", kGrid, &O::scenario, &S::batch),
      column("requests", kAll, &O::serve_requests),
      column("batches", kAll, &O::serve_batches),
      column("throughput_rps", kAll, &O::throughput_rps),
      column("mean_batch", kAll, &O::mean_batch),
      column("p50_latency_s", kAll, &O::p50_latency_s),
      column("p99_latency_s", kAll, &O::p99_latency_s),
      column("p999_latency_s", kAll, &O::p999_latency_s),
      column("metrics", kReport, &O::result, &R::metrics),
      column("fault", kGrid, &O::scenario, &S::config, &C::fault),
      column("kill", kGrid, &O::scenario, &S::config, &C::kill),
      column("checkpoint_every", kGrid, &O::scenario, &S::config,
             &C::checkpoint_every),
      counter("retransmits"),
      counter("gaps_detected"),
      counter("messages_dropped"),
      counter("checkpoints"),
      counter("restores"),
  };
  return table;
}

/// `, "name": value` for every report column of an ok outcome.
void write_report_columns(std::ostream& os, const ScenarioOutcome& o,
                          Format format) {
  for (const Column& c : columns()) {
    if (c.where & kReport) {
      os << ", \"" << c.name << "\": " << c.write(o, format);
    }
  }
}

std::string journal_header_line(const std::string& fingerprint,
                                std::size_t scenarios) {
  std::ostringstream os;
  os << "{\"kind\": \"" << kJournalKind << "\", \"version\": "
     << kJournalVersion << ", \"fingerprint\": \"" << fingerprint << "\""
     << ", \"scenarios\": " << scenarios << '}';
  return os.str();
}

std::string journal_outcome_line(const ScenarioOutcome& o) {
  std::ostringstream os;
  os << "{\"index\": " << o.scenario.index            //
     << ", \"tag\": \"" << json_escape(o.scenario.tag()) << "\""
     << ", \"status\": \"" << (o.ok ? "ok" : "error") << "\"";
  if (o.ok) {
    write_report_columns(os, o, Format::kJournal);
  } else {
    os << ", \"error\": \"" << json_escape(o.error) << "\"";
  }
  os << '}';
  return os.str();
}

/// Parse one journal data line back into the outcome for its scenario.
/// Returns false (leaving `completed` untouched) on lines that do not
/// parse — only the final line of a killed run can be torn, because the
/// writer flushes per line.
bool restore_outcome_line(const std::string& line,
                          const std::vector<Scenario>& scenarios,
                          std::vector<ScenarioOutcome>& outcomes,
                          std::vector<char>& completed) {
  // A line torn inside its final numeric field would still satisfy every
  // field extractor below (strtod parses the truncated prefix); only a
  // closing brace proves the record was written out completely.
  const auto last = line.find_last_not_of(" \t\r");
  if (last == std::string::npos || line[last] != '}') return false;
  std::int64_t index = -1;
  std::string tag, status;
  if (!json_get_int(line, "index", index) ||
      !json_get_string(line, "tag", tag) ||
      !json_get_string(line, "status", status)) {
    return false;
  }
  if (index < 0 || static_cast<std::size_t>(index) >= scenarios.size()) {
    return false;
  }
  const auto i = static_cast<std::size_t>(index);
  NADMM_CHECK(scenarios[i].tag() == tag,
              "sweep journal: scenario " + std::to_string(index) +
                  " is tagged '" + tag + "' but the grid expands to '" +
                  scenarios[i].tag() + "' — journal is from a different spec");
  ScenarioOutcome o;
  o.scenario = scenarios[i];
  o.from_journal = true;
  if (status == "ok") {
    // Every report column is required: the version and the fingerprint
    // serialization change whenever the column set does, so older
    // journals are rejected up front.
    for (const Column& c : columns()) {
      if ((c.where & kReport) && !c.restore(line, o)) return false;
    }
    o.ok = true;
    o.result.solver = scenarios[i].solver;
  } else if (status == "error") {
    if (!json_get_string(line, "error", o.error)) return false;
    o.ok = false;
  } else {
    return false;
  }
  outcomes[i] = std::move(o);
  completed[i] = 1;
  return true;
}

}  // namespace

namespace {

// ------------------------------------------------------------ spec fields

/// One field of the spec's canonical serialization (the fingerprint);
/// fields with `apply` are also `.sweep` keys and override flags.
struct SpecField {
  std::string key;
  std::string help;  ///< the override flag's help line
  /// Check `value` (errors name `who`) and store it in the spec.
  std::function<void(SweepSpec&, const std::string& who,
                     const std::string& value)>
      apply;
  /// The field as the fingerprint writes it (doubles at %.17g).
  std::function<std::string(const SweepSpec&)> get;
};

template <class T>
struct is_list : std::false_type {};
template <class T>
struct is_list<std::vector<T>> : std::true_type {};

/// `v` as the fingerprint writes it: doubles at %.17g, bools as 0/1,
/// grid axes comma-joined.
template <class T>
std::string text_of(const T& v) {
  if constexpr (is_list<T>::value) {
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ',';
      out += text_of(v[i]);
    }
    return out;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else if constexpr (std::is_same_v<T, double>) {
    return fmt_double(v);
  } else {
    return std::to_string(v);
  }
}

/// `text` as a T once it passes `check` (errors name `who`); a grid axis
/// is a comma-separated list, checked element by element.
template <class T>
T parse_as(const OptionValidator& check, const std::string& who,
           const std::string& text) {
  if constexpr (is_list<T>::value) {
    T items;
    for (const std::string& item : split_list(text)) {
      items.push_back(parse_as<typename T::value_type>(check, who, item));
    }
    return items;
  } else {
    if (check) check(who, text);
    if constexpr (std::is_same_v<T, std::string>) {
      return text;
    } else if constexpr (std::is_same_v<T, bool>) {
      return text == "true" || text == "1";
    } else if constexpr (std::is_same_v<T, double>) {
      return std::stod(text);
    } else {
      return static_cast<T>(std::stoll(text));
    }
  }
}

/// Spec field `name` over `member`, its values passing `check`.
template <class T>
SpecField field(std::string name, T SweepSpec::*member, OptionValidator check,
                std::string help) {
  return {std::move(name), std::move(help),
          [=](SweepSpec& spec, const std::string& who,
              const std::string& value) {
            spec.*member = parse_as<T>(check, who, value);
          },
          [=](const SweepSpec& spec) { return text_of(spec.*member); }};
}

/// The validator of run flag `flag`.
OptionValidator check_of(const std::string& flag) {
  const OptionSpec* spec = scenario_options().find(flag);
  if (spec == nullptr) spec = serving_options().find(flag);
  NADMM_ASSERT(spec != nullptr);
  return spec->validator;
}

/// Every spec field in fingerprint order: the train axes, every base
/// knob that survives expansion (axis-set members are covered by their
/// axes) at its slot, then the spec-level fields. Values pass the
/// validator of the matching run flag.
const std::vector<SpecField>& spec_fields() {
  using S = SweepSpec;
  static const std::vector<SpecField> fields = [] {
    std::vector<SpecField> out = {
        field("solvers", &S::solvers, v_solver(),
              "e.g. newton-admm,giant,sync-sgd"),
        field("datasets", &S::datasets, check_of("dataset"),
              "e.g. blobs,higgs"),
        field("workers", &S::workers, check_of("workers"), "e.g. 4,8,16"),
        field("devices", &S::devices, check_of("device"), "e.g. p100,cpu"),
        field("networks", &S::networks, check_of("network"),
              "e.g. ib100,eth10"),
        field("penalties", &S::penalties, check_of("penalty"),
              "e.g. sps,fixed"),
        field("lambdas", &S::lambdas, check_of("lambda"), "e.g. 1e-5,1e-4"),
        field("stragglers", &S::stragglers, check_of("straggler"),
              "e.g. none,1:4"),
        field("partitions", &S::partitions, check_of("partition"),
              "e.g. contiguous,strided,weighted"),
        field("faults", &S::faults, check_of("fault"),
              "e.g. none,drop:0.05,drop:0.1+dup:0.02 ('+' joins clauses "
              "within one entry)"),
    };
    std::vector<const Knob*> base;
    for (const Knob& knob : scenario_knobs()) {
      if (knob.slot >= 0) base.push_back(&knob);
    }
    std::sort(base.begin(), base.end(),
              [](const Knob* a, const Knob* b) { return a->slot < b->slot; });
    for (std::size_t i = 0; i < base.size(); ++i) {
      const Knob* knob = base[i];
      NADMM_ASSERT(knob->slot == static_cast<int>(i));  // slots are 0..n-1
      SpecField f{knob->key, knob->flag.help, {},
                  [knob](const S& spec) { return knob->get(spec.base); }};
      if (knob->in_spec) {
        f.apply = [knob](S& spec, const std::string& who,
                         const std::string& value) {
          if (knob->flag.validator) knob->flag.validator(who, value);
          knob->set(spec.base, who, value);
        };
      }
      out.push_back(std::move(f));
    }
    out.insert(
        out.end(),
        {field("scale", &S::scale, v_double_min(0.0, /*inclusive=*/false),
               "paper-scale multiplier for n-train/n-test (each scale "
               "keeps its own resume journal)"),
         field("weak_scaling", &S::weak_scaling,
               v_one_of({"true", "false", "1", "0"}),
               "true|false: n-train is the per-worker shard"),
         field("mode", &S::mode, v_one_of({"train", "serving"}),
               "grid mode: train|serving"),
         field("arrivals", &S::arrivals, check_of("arrival"),
               "serving-mode arrival axis, e.g. poisson:1000,bursty"),
         field("batch_policies", &S::batch_policies, check_of("batch"),
               "serving-mode batch axis, e.g. immediate,deadline:16:0.005"),
         field("serve_requests", &S::serve_requests, check_of("requests"),
               "serving requests per scenario"),
         field("serve_model", &S::serve_model, {},
               "serve a pre-trained model file instead of training"),
         field("dispatch_overhead", &S::dispatch_overhead_s,
               check_of("dispatch-overhead"),
               "serving per-dispatch cost in seconds")});
    return out;
  }();
  return fields;
}

/// The override flag of spec key `key`: n_train → n-train.
std::string flag_name(std::string key) {
  std::replace(key.begin(), key.end(), '_', '-');
  return key;
}

}  // namespace

void apply_sweep_assignment(SweepSpec& spec, const std::string& raw_key,
                            const std::string& raw_value) {
  const std::string key = trim(raw_key);
  const std::string value = trim(raw_value);
  NADMM_CHECK(!key.empty(), "sweep key must not be empty");
  NADMM_CHECK(!value.empty(), "sweep key '" + key + "' has an empty value");
  for (const SpecField& k : spec_fields()) {
    if (k.apply && k.key == key) {
      return k.apply(spec, "sweep key '" + key + "'", value);
    }
  }
  std::string known;
  for (const SpecField& k : spec_fields()) {
    if (k.apply) known += (known.empty() ? "" : "|") + k.key;
  }
  throw InvalidArgument("unknown sweep key '" + key + "' (expected " + known +
                        ")");
}

SweepSpec parse_sweep_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw RuntimeError("cannot open sweep spec: " + path);
  SweepSpec spec;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (trim(line).empty()) continue;
    const std::string where =
        "sweep spec " + path + ":" + std::to_string(line_no);
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw InvalidArgument(where + ": expected 'key = value', got '" +
                            trim(line) + "'");
    }
    try {
      apply_sweep_assignment(spec, line.substr(0, eq), line.substr(eq + 1));
    } catch (const InvalidArgument& e) {
      throw InvalidArgument(where + ": " + e.what());
    }
  }
  return spec;
}

const OptionSet& sweep_override_options() {
  static const OptionSet options = [] {
    OptionSet s;
    for (const SpecField& k : spec_fields()) {
      if (k.apply) s.add_string(flag_name(k.key), "", k.help);
    }
    return s;
  }();
  return options;
}

void apply_sweep_overrides(SweepSpec& spec, const CliParser& cli) {
  for (const SpecField& k : spec_fields()) {
    if (!k.apply) continue;
    const std::string& value = cli.get_string(flag_name(k.key));
    if (!value.empty()) apply_sweep_assignment(spec, k.key, value);
  }
}

namespace {

/// Map file-system-unsafe characters (e.g. from "libsvm:/path" dataset
/// sources, "p100+cpu" device lists, "1:4" straggler specs) to '-'.
std::string fs_safe(std::string s) {
  for (char& c : s) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    if (!safe) c = '-';
  }
  return s;
}

}  // namespace

std::string Scenario::tag() const {
  // The index prefix keeps tags unique even after sanitization.
  char buf[512];
  if (serving) {
    std::snprintf(buf, sizeof buf, "%03d_serve_%s_%s_w%d_%s_%s_%s_%s", index,
                  solver.c_str(), fs_safe(config.dataset).c_str(),
                  config.workers, fs_safe(config.device).c_str(),
                  config.network.c_str(), fs_safe(arrival).c_str(),
                  fs_safe(batch).c_str());
    return buf;
  }
  std::snprintf(buf, sizeof buf, "%03d_%s_%s_w%d_%s_%s_%s_lam%s_st%s_%s",
                index, solver.c_str(), fs_safe(config.dataset).c_str(),
                config.workers, fs_safe(config.device).c_str(),
                config.network.c_str(), config.penalty.c_str(),
                fmt_compact(config.lambda).c_str(),
                fs_safe(config.straggler).c_str(), config.partition.c_str());
  std::string tag = buf;
  // Appended only when set, so pre-fault grids keep their tags (and
  // their journals) unchanged.
  if (!config.fault.empty() && config.fault != "none") {
    tag += "_f" + fs_safe(config.fault);
  }
  return tag;
}

namespace {

/// Sample count after the spec's paper-scale multiplier.
std::size_t scaled_count(std::size_t base, double scale) {
  return static_cast<std::size_t>(
      std::llround(static_cast<double>(base) * scale));
}

}  // namespace

std::vector<Scenario> expand_scenarios(const SweepSpec& spec) {
  NADMM_CHECK(!spec.solvers.empty(), "sweep needs at least one solver");
  NADMM_CHECK(!spec.datasets.empty(), "sweep needs at least one dataset");
  const std::size_t scaled_train =
      std::max<std::size_t>(1, scaled_count(spec.base.n_train, spec.scale));
  const std::size_t scaled_test = scaled_count(spec.base.n_test, spec.scale);
  if (spec.mode == "serving") {
    NADMM_CHECK(!spec.devices.empty(), "sweep needs at least one device");
    NADMM_CHECK(!spec.networks.empty(), "sweep needs at least one network");
    NADMM_CHECK(!spec.arrivals.empty(),
                "serving sweep needs at least one arrival model");
    NADMM_CHECK(!spec.batch_policies.empty(),
                "serving sweep needs at least one batch policy");
    // Fixed axis order (solver, dataset, device, network, arrival,
    // batch — rightmost fastest); the train-only axes stay at base.
    std::vector<Scenario> scenarios;
    int index = 0;
    for (const auto& solver : spec.solvers) {
      for (const auto& dataset : spec.datasets) {
        for (const auto& device : spec.devices) {
          for (const auto& network : spec.networks) {
            for (const auto& arrival : spec.arrivals) {
              for (const auto& batch : spec.batch_policies) {
                Scenario s;
                s.index = index++;
                s.solver = solver;
                s.config = spec.base;
                s.config.n_train = scaled_train;
                s.config.n_test = scaled_test;
                s.config.dataset = dataset;
                s.config.device = device;
                s.config.network = network;
                s.serving = true;
                s.arrival = arrival;
                s.batch = batch;
                scenarios.push_back(std::move(s));
              }
            }
          }
        }
      }
    }
    return scenarios;
  }
  NADMM_CHECK(!spec.workers.empty(), "sweep needs at least one worker count");
  NADMM_CHECK(!spec.devices.empty(), "sweep needs at least one device");
  NADMM_CHECK(!spec.networks.empty(), "sweep needs at least one network");
  NADMM_CHECK(!spec.penalties.empty(), "sweep needs at least one penalty");
  NADMM_CHECK(!spec.lambdas.empty(), "sweep needs at least one lambda");
  NADMM_CHECK(!spec.stragglers.empty(),
              "sweep needs at least one straggler entry ('none' disables)");
  NADMM_CHECK(!spec.partitions.empty(),
              "sweep needs at least one partition mode");
  NADMM_CHECK(!spec.faults.empty(),
              "sweep needs at least one fault entry ('none' disables)");

  std::vector<Scenario> scenarios;
  int index = 0;
  for (const auto& solver : spec.solvers) {
    for (const auto& dataset : spec.datasets) {
      for (const int workers : spec.workers) {
        for (const auto& device : spec.devices) {
          for (const auto& network : spec.networks) {
            for (const auto& penalty : spec.penalties) {
              for (const double lambda : spec.lambdas) {
                for (const auto& straggler : spec.stragglers) {
                  for (const auto& partition : spec.partitions) {
                    for (const auto& fault : spec.faults) {
                      Scenario s;
                      s.index = index++;
                      s.solver = solver;
                      s.config = spec.base;
                      // Weak scaling: base.n_train is the per-worker
                      // shard.
                      s.config.n_train =
                          spec.weak_scaling
                              ? scaled_train *
                                    static_cast<std::size_t>(workers)
                              : scaled_train;
                      s.config.n_test = scaled_test;
                      s.config.dataset = dataset;
                      s.config.workers = workers;
                      s.config.device = device;
                      s.config.network = network;
                      s.config.penalty = penalty;
                      s.config.lambda = lambda;
                      s.config.straggler = straggler;
                      s.config.partition = partition;
                      s.config.fault = fault;
                      scenarios.push_back(std::move(s));
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return scenarios;
}

std::string spec_fingerprint(const SweepSpec& spec) {
  std::string canonical;
  for (const SpecField& k : spec_fields()) {
    canonical += k.key + '=' + k.get(spec) + ';';
  }
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::size_t SweepReport::failures() const {
  std::size_t n = 0;
  for (const auto& o : outcomes) n += o.ok ? 0 : 1;
  return n;
}

std::vector<std::string> SweepReport::csv_rows() const {
  std::vector<std::string> rows(outcomes.size() + 1);
  for (const Column& c : columns()) {
    if (!(c.where & kCsv)) continue;
    const bool first = rows[0].empty();
    rows[0] += (first ? "" : ",") + c.name;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const auto& o = outcomes[i];
      if (!first) rows[i + 1] += ',';
      rows[i + 1] += o.ok || (c.where & kScenario) ? c.write(o, Format::kCsv)
                                                   : c.csv_zero;
    }
  }
  return rows;
}

void SweepReport::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw RuntimeError("cannot open sweep report for writing: " + path);
  for (const auto& row : csv_rows()) out << row << '\n';
}

void SweepReport::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw RuntimeError("cannot open sweep report for writing: " + path);
  out << "[\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    const auto& c = o.scenario.config;
    out << "  {\"scenario\": " << o.scenario.index                      //
        << ", \"tag\": \"" << json_escape(o.scenario.tag()) << "\""     //
        << ", \"solver\": \"" << json_escape(o.scenario.solver) << "\"" //
        << ", \"dataset\": \"" << json_escape(c.dataset) << "\""        //
        << ", \"n_train\": " << c.n_train                               //
        << ", \"n_test\": " << c.n_test                                 //
        << ", \"workers\": " << c.workers                               //
        << ", \"device\": \"" << json_escape(c.device) << "\""          //
        << ", \"network\": \"" << json_escape(c.network) << "\""        //
        << ", \"penalty\": \"" << json_escape(c.penalty) << "\""        //
        << ", \"lambda\": " << format_value(c.lambda, Format::kJson)  //
        << ", \"straggler\": \"" << json_escape(c.straggler) << "\""    //
        << ", \"partition\": \"" << json_escape(c.partition) << "\""    //
        << ", \"fault\": \"" << json_escape(c.fault) << "\""            //
        << ", \"kill\": \"" << json_escape(c.kill) << "\""              //
        << ", \"checkpoint_every\": " << c.checkpoint_every             //
        << ", \"arrival\": \"" << json_escape(o.scenario.arrival) << "\""
        << ", \"batch_policy\": \"" << json_escape(o.scenario.batch) << "\""
        << ", \"status\": \"" << (o.ok ? "ok" : "error") << "\"";
    if (o.ok) {
      write_report_columns(out, o, Format::kJson);
    } else {
      out << ", \"error\": \"" << json_escape(o.error) << "\"";
    }
    out << '}' << (i + 1 < outcomes.size() ? "," : "") << '\n';
  }
  out << "]\n";
}

SweepReport run_sweep(const SweepSpec& spec, const SweepOptions& options) {
  NADMM_CHECK(options.jobs >= 1, "sweep needs at least one scheduler thread");
  const std::vector<Scenario> scenarios = expand_scenarios(spec);
  const std::string fingerprint = spec_fingerprint(spec);

  if (!options.trace_dir.empty()) {
    std::filesystem::create_directories(options.trace_dir);
  }
  if (!options.trace_event_dir.empty()) {
    std::filesystem::create_directories(options.trace_event_dir);
  }

  SweepReport report;
  report.outcomes.resize(scenarios.size());
  std::vector<char> completed(scenarios.size(), 0);

  // Scenarios that agree on (dataset, n, p, seed) share one immutable
  // copy through the provider; budget 0 reverts to per-scenario
  // regeneration.
  data::DatasetProvider local_provider(options.cache_budget);
  data::DatasetProvider* provider =
      options.provider ? options.provider : &local_provider;
  const bool use_cache = options.provider != nullptr || options.cache_budget > 0;
  const auto full_dataset = [&](const data::DatasetKey& key) {
    return use_cache ? provider->get(key)
                     : std::make_shared<const data::TrainTest>(
                           data::generate_dataset(key));
  };

  bool journal_needs_newline = false;
  if (options.resume && !options.journal_path.empty() &&
      std::filesystem::exists(options.journal_path)) {
    std::ifstream in(options.journal_path);
    if (!in) {
      throw RuntimeError("cannot open sweep journal: " + options.journal_path);
    }
    std::string line;
    // A kill inside the truncate-then-write-header window leaves an
    // empty or torn header; nothing restorable was lost, so treat that
    // as a fresh start rather than dead-ending --resume.
    const bool has_header =
        static_cast<bool>(std::getline(in, line)) &&
        line.find_last_not_of(" \t\r") != std::string::npos &&
        line[line.find_last_not_of(" \t\r")] == '}';
    if (has_header) {
      std::string kind, journal_fp;
      std::int64_t journal_fp_scenarios = -1, journal_version = -1;
      NADMM_CHECK(json_get_string(line, "kind", kind) && kind == kJournalKind,
                  "sweep journal " + options.journal_path +
                      " has an unrecognized header");
      NADMM_CHECK(json_get_string(line, "fingerprint", journal_fp) &&
                      json_get_int(line, "scenarios", journal_fp_scenarios) &&
                      json_get_int(line, "version", journal_version),
                  "sweep journal " + options.journal_path +
                      " has a malformed header");
      NADMM_CHECK(journal_version == kJournalVersion,
                  "sweep journal " + options.journal_path +
                      " has unsupported version " +
                      std::to_string(journal_version) +
                      " (expected " + std::to_string(kJournalVersion) +
                      ") — rerun without --resume to start fresh");
      NADMM_CHECK(journal_fp == fingerprint &&
                      journal_fp_scenarios ==
                          static_cast<std::int64_t>(scenarios.size()),
                  "sweep journal " + options.journal_path +
                      " was written for a different grid spec (fingerprint " +
                      journal_fp + ", expected " + fingerprint +
                      ") — rerun without --resume to start fresh");
      bool ends_with_newline = true;
      while (std::getline(in, line)) {
        ends_with_newline = !in.eof() || line.empty();
        restore_outcome_line(line, scenarios, report.outcomes, completed);
      }
      for (const char c : completed) report.resumed += c ? 1 : 0;
      journal_needs_newline = !ends_with_newline;
    }
  }

  std::ofstream journal;
  if (!options.journal_path.empty()) {
    const bool append = report.resumed > 0;
    journal.open(options.journal_path,
                 append ? std::ios::app : std::ios::trunc);
    if (!journal) {
      throw RuntimeError("cannot open sweep journal for writing: " +
                         options.journal_path);
    }
    if (!append) {
      journal << journal_header_line(fingerprint, scenarios.size()) << '\n';
      journal.flush();
    } else if (journal_needs_newline) {
      // A kill mid-write can leave a torn final line; terminate it so the
      // next appended record starts on its own line.
      journal << '\n';
      journal.flush();
    }
  }

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> claimed{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mutex;
  const std::size_t to_execute = scenarios.size() - report.resumed;

  // Serving scenarios share one trained model per (solver, dataset):
  // training runs under the base cluster config, so the grid's
  // device/network axes rate only the serving plane, never the model.
  std::mutex model_mutex;
  std::map<std::string, std::shared_ptr<const serve::SavedModel>> model_cache;

  auto serve_model_for = [&](const Scenario& scenario,
                             const ExperimentConfig& config) {
    const std::string key = spec.serve_model.empty()
                                ? scenario.solver + "|" + config.dataset
                                : "@" + spec.serve_model;
    const std::scoped_lock lock(model_mutex);
    const auto it = model_cache.find(key);
    if (it != model_cache.end()) return it->second;
    std::shared_ptr<const serve::SavedModel> model;
    if (!spec.serve_model.empty()) {
      model = std::make_shared<serve::SavedModel>(
          serve::load_model(spec.serve_model));
    } else {
      ExperimentConfig train_config = config;
      train_config.device = spec.base.device;
      train_config.network = spec.base.network;
      const auto full = full_dataset(dataset_key(train_config));
      const data::TrainTest& tt = *full;
      comm::SimCluster cluster = make_cluster(train_config);
      const core::RunResult trained = SolverRegistry::instance().run(
          scenario.solver, cluster,
          shard_for_solver(scenario.solver, tt.train, &tt.test, train_config),
          train_config);
      auto m = std::make_shared<serve::SavedModel>();
      m->objective = "softmax";
      m->solver = scenario.solver;
      m->dataset = train_config.dataset;
      m->num_features = tt.train.num_features();
      m->num_classes = tt.train.num_classes();
      m->lambda = train_config.lambda;
      m->x = trained.x;
      model = m;
    }
    model_cache.emplace(key, model);
    return model;
  };

  auto run_one = [&](const Scenario& scenario) {
    ScenarioOutcome outcome;
    outcome.scenario = scenario;
    // One tracer per scenario: spans stamp virtual time only, so the
    // exported file is byte-identical no matter how many scheduler
    // threads ran the grid. The scope is thread-local, so concurrent
    // scenarios on other workers never share a tracer.
    std::unique_ptr<telem::Tracer> tracer;
    std::optional<telem::TracerScope> tracer_scope;
    if (!options.trace_event_dir.empty()) {
      tracer = std::make_unique<telem::Tracer>(scenario.tag());
      tracer_scope.emplace(*tracer);
    }
    const auto write_trace = [&] {
      if (!tracer || !outcome.ok) return;
      tracer_scope.reset();  // detach before export
      tracer->write_chrome_trace_file(options.trace_event_dir + "/" +
                                      scenario.tag() + ".trace.json");
    };
    try {
      ExperimentConfig config = scenario.config;
      config.omp_threads = 1;
      if (scenario.serving) {
        const auto model = serve_model_for(scenario, config);
        // The request pool is the test split of the scenario's dataset.
        const auto full = full_dataset(dataset_key(config));
        const data::TrainTest& tt = *full;
        NADMM_CHECK(!tt.test.empty(),
                    "serving needs a non-empty test split (n_test > 0)");
        serve::ServeConfig sc;
        sc.arrival = scenario.arrival;
        sc.batch = scenario.batch;
        sc.requests = spec.serve_requests;
        sc.seed = config.seed;
        sc.device = config.device;
        sc.network = config.network;
        sc.dispatch_overhead_s = spec.dispatch_overhead_s;
        sc.omp_threads = config.omp_threads;
        const serve::ServeResult sr = serve::simulate(*model, tt.test, sc);
        outcome.serve_requests = sr.requests;
        outcome.serve_batches = sr.batches;
        outcome.throughput_rps = sr.throughput_rps;
        outcome.mean_batch = sr.mean_batch;
        outcome.p50_latency_s = sr.p50_latency_s;
        outcome.p99_latency_s = sr.p99_latency_s;
        outcome.p999_latency_s = sr.p999_latency_s;
        outcome.result.solver = scenario.solver;
        outcome.result.final_test_accuracy = sr.accuracy;
        outcome.result.total_sim_seconds = sr.total_sim_seconds;
        outcome.ok = true;
        write_trace();
        return outcome;
      }
      const SolverInfo& info =
          SolverRegistry::instance().info(scenario.solver);
      const data::DatasetKey key = dataset_key(config);
      // Distributed solvers run on pre-sharded data: zero-copy views of
      // the cached full dataset, or — for `libsvm:` sources — per-rank
      // shards streamed straight from the file so the full matrix never
      // materializes. Single-node solvers need the full splits, so they
      // keep the materialized path (a one-part plan).
      std::shared_ptr<const data::ShardedDataset> shared;
      data::ShardedDataset owned;
      if (info.kind == SolverKind::kSingleNode) {
        // Materialize (streamed shards carry no full matrix) and wrap in
        // a one-part plan to keep the uniform registry signature.
        const auto full = full_dataset(key);
        owned = data::make_sharded(full->train, &full->test, data::ShardPlan{});
      } else if (use_cache) {
        shared = provider->get_sharded(key, shard_plan(config));
      } else {
        owned = data::generate_sharded_dataset(key, shard_plan(config));
      }
      const data::ShardedDataset& sharded = shared ? *shared : owned;
      outcome.peak_dataset_bytes = sharded.resident_bytes;
      comm::SimCluster cluster = make_cluster(config);
      outcome.result = SolverRegistry::instance().run(scenario.solver, cluster,
                                                      sharded, config);
      if (!options.trace_dir.empty()) {
        write_trace_csv(outcome.result,
                        options.trace_dir + "/" + scenario.tag() + ".csv");
      }
      outcome.comm_sim_seconds = outcome.result.trace.empty()
                                     ? 0.0
                                     : outcome.result.trace.back()
                                           .comm_sim_seconds;
      outcome.max_wait_seconds = outcome.result.max_wait_seconds();
      outcome.rank_waits = fmt_rank_waits(outcome.result.rank_wait_seconds);
      outcome.staleness_hist =
          fmt_staleness_hist(outcome.result.staleness_hist);
      outcome.ok = true;
      write_trace();
    } catch (const std::exception& e) {
      outcome.ok = false;
      outcome.error = e.what();
    }
    return outcome;
  };

  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= scenarios.size()) return;
      if (completed[i]) continue;
      if (options.max_scenarios > 0 &&
          claimed.fetch_add(1) >= options.max_scenarios) {
        return;
      }
      ScenarioOutcome outcome = run_one(scenarios[i]);
      {
        const std::scoped_lock lock(progress_mutex);
        report.outcomes[i] = std::move(outcome);
        ++report.executed;
        if (journal.is_open()) {
          journal << journal_outcome_line(report.outcomes[i]) << '\n';
          journal.flush();
        }
        const std::size_t finished = done.fetch_add(1) + 1;
        if (options.on_scenario_done) {
          options.on_scenario_done(report.outcomes[i], finished, to_execute);
        }
      }
    }
  };

  const std::size_t pool_size = std::min<std::size_t>(
      static_cast<std::size_t>(options.jobs), to_execute > 0 ? to_execute : 1);
  if (pool_size <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (std::size_t t = 0; t < pool_size; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  report.cache = provider->stats();
  return report;
}

}  // namespace nadmm::runner
