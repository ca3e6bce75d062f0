// Result reporting for the figure benches and the btsc-sweep CLI.
//
// Reporter is an output backend interface with text (fixed-width table),
// CSV and JSON implementations writing to any std::ostream. JSON prints
// doubles with %.17g, so two runs producing bitwise-equal doubles
// serialise to byte-identical files (the determinism test's comparison
// key). BenchArgs parses the command-line knobs the benches share.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <climits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace btsc::core {

/// Escapes `s` for use inside a JSON string literal (no surrounding
/// quotes): quote, backslash and the common control characters get
/// their short escapes, every other control character a \u escape.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  return out;
}

/// Output backend for one titled table of doubles. Call order contract:
/// begin, meta*, columns, row*, note*, end.
class Reporter {
 public:
  virtual ~Reporter() = default;

  /// Starts a report with a human-readable title.
  virtual void begin(const std::string& title) = 0;
  /// Key/value metadata (threads, base seed, wall seconds...).
  virtual void meta(const std::string& key, const std::string& value) = 0;
  /// Names the columns of the rows that follow.
  virtual void columns(const std::vector<std::string>& names) = 0;
  /// Emits one data row (same arity as the column list).
  virtual void row(const std::vector<double>& values) = 0;
  /// Free-form annotation attached after the table.
  virtual void note(const std::string& text) = 0;
  /// Finishes the report (flushes structural output, e.g. the JSON
  /// closing brace). Must be called exactly once.
  virtual void end() = 0;
};

/// Fixed-width human-readable table (the classic bench stdout format).
class TextReporter : public Reporter {
 public:
  explicit TextReporter(std::ostream& os) : os_(os) {}

  void begin(const std::string& title) override {
    os_ << "# " << title << "\n";
  }
  void meta(const std::string& key, const std::string& value) override {
    os_ << "# " << key << ": " << value << "\n";
  }
  void columns(const std::vector<std::string>& names) override {
    for (const auto& n : names) print_cell(n);
    os_ << "\n";
    for (std::size_t i = 0; i < names.size(); ++i) print_cell("-----");
    os_ << "\n";
  }
  void row(const std::vector<double>& values) override {
    char buf[32];
    for (double v : values) {
      std::snprintf(buf, sizeof(buf), "%14.4g", v);
      os_ << buf;
    }
    os_ << "\n";
  }
  void note(const std::string& text) override {
    os_ << "# " << text << "\n";
  }
  void end() override { os_.flush(); }

 private:
  void print_cell(const std::string& s) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%14s", s.c_str());
    os_ << buf;
  }
  std::ostream& os_;
};

/// Comma-separated values: one header line, one line per row. Title,
/// metadata and notes become '#' comment lines (ignored by CSV parsers).
class CsvReporter : public Reporter {
 public:
  explicit CsvReporter(std::ostream& os) : os_(os) {}

  void begin(const std::string& title) override {
    os_ << "# " << title << "\n";
  }
  void meta(const std::string& key, const std::string& value) override {
    os_ << "# " << key << ": " << value << "\n";
  }
  void columns(const std::vector<std::string>& names) override {
    for (std::size_t i = 0; i < names.size(); ++i) {
      os_ << (i ? "," : "") << names[i];
    }
    os_ << "\n";
  }
  void row(const std::vector<double>& values) override {
    char buf[32];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
      os_ << (i ? "," : "") << buf;
    }
    os_ << "\n";
  }
  void note(const std::string& text) override {
    os_ << "# " << text << "\n";
  }
  void end() override { os_.flush(); }

 private:
  std::ostream& os_;
};

/// Single JSON object: {"title", "meta": {...}, "columns": [...],
/// "rows": [[...]], "notes": [...]}. Doubles use %.17g (round-trip
/// exact), so byte-identical output == bitwise-identical results.
class JsonReporter : public Reporter {
 public:
  explicit JsonReporter(std::ostream& os) : os_(os) {}

  void begin(const std::string& title) override {
    os_ << "{\n  \"title\": " << quote(title);
  }
  void meta(const std::string& key, const std::string& value) override {
    meta_.emplace_back(key, value);
  }
  void columns(const std::vector<std::string>& names) override {
    names_ = names;
  }
  void row(const std::vector<double>& values) override {
    rows_.push_back(values);
  }
  void note(const std::string& text) override { notes_.push_back(text); }

  void end() override {
    os_ << ",\n  \"meta\": {";
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      os_ << (i ? ", " : "") << quote(meta_[i].first) << ": "
          << quote(meta_[i].second);
    }
    os_ << "},\n  \"columns\": [";
    for (std::size_t i = 0; i < names_.size(); ++i) {
      os_ << (i ? ", " : "") << quote(names_[i]);
    }
    os_ << "],\n  \"rows\": [";
    char buf[32];
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      os_ << (r ? ",\n    " : "\n    ") << "[";
      for (std::size_t c = 0; c < rows_[r].size(); ++c) {
        std::snprintf(buf, sizeof(buf), "%.17g", rows_[r][c]);
        os_ << (c ? ", " : "") << buf;
      }
      os_ << "]";
    }
    os_ << (rows_.empty() ? "],\n" : "\n  ],\n") << "  \"notes\": [";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
      os_ << (i ? ", " : "") << quote(notes_[i]);
    }
    os_ << "]\n}\n";
    os_.flush();
  }

 private:
  static std::string quote(const std::string& s) {
    return '"' + json_escape(s) + '"';
  }

  std::ostream& os_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> names_;
  std::vector<std::vector<double>> rows_;
  std::vector<std::string> notes_;
};

/// Shared command-line knobs for the figure benches and btsc-sweep:
/// --seeds/--replications N, --quick, --csv, --json, --threads N,
/// --out FILE, --base-seed S, --max-points N, --no-burst,
/// --checkpoint-dir DIR, --journal FILE, --resume,
/// --rep-timeout S, --max-retries N, --keep-going,
/// --quarantine-out FILE. btsc-sweep's scenario selectors (--fig N,
/// --scenario ID) are skipped; the first other argument parse does not
/// recognise, or a flag missing its value, lands in `unknown`, and the
/// first malformed or out-of-range numeric value in `invalid`.
struct BenchArgs {
  /// Replications per point; 0 = scenario/bench default.
  int seeds = 0;
  /// Use the reduced configuration (fewer replications, shorter windows).
  bool quick = false;
  /// Emit CSV instead of the fixed-width text table.
  bool csv = false;
  /// Emit JSON instead of the fixed-width text table.
  bool json = false;
  /// Worker threads for sweep-backed benches; 0 = hardware concurrency.
  int threads = 1;
  /// Output file; empty = stdout. ".json"/".csv" suffixes select the
  /// format unless --csv/--json already did.
  std::string out;
  /// Root seed override for sweep-backed benches; 0 = default.
  std::uint64_t base_seed = 0;
  /// Keep only the first N sweep points; 0 = all.
  int max_points = 0;
  /// Disable the PHY burst transport (per-bit reference path); the
  /// simulation results are bit-identical either way -- this is the
  /// swap-safety escape hatch, not a modelling knob.
  bool no_burst = false;
  /// Append-only results journal file (--journal); empty = none. Every
  /// completed replication is fsync'd there, enabling --resume.
  std::string journal;
  /// Resume from an existing journal instead of refusing to overwrite
  /// it (--resume; requires --journal).
  bool resume = false;
  /// Durable warm-up checkpoint directory (--checkpoint-dir): the
  /// per-point warm-up snapshots spill here and load from here; empty =
  /// in-memory warm-up cache only.
  std::string checkpoint_dir;
  /// Per-replication deadline in seconds (--rep-timeout); <= 0 = none.
  /// Enables the sweep supervisor: overrunning replications are
  /// quarantined instead of hanging the sweep.
  double rep_timeout = 0.0;
  /// Extra attempts for a throwing replication (--max-retries); enables
  /// the supervisor.
  int max_retries = 0;
  /// Quarantine failing replications and keep sweeping (--keep-going);
  /// enables the supervisor.
  bool keep_going = false;
  /// Write the machine-readable quarantine report here
  /// (--quarantine-out); empty = stderr when non-empty quarantine.
  std::string quarantine_out;
  /// First unrecognised argument; empty = none.
  std::string unknown;
  /// First malformed or out-of-range numeric value, as "FLAG VALUE";
  /// empty = none. Its field keeps the default.
  std::string invalid;

  /// When parsing met an unknown option or a malformed value, prints the
  /// problem as "prog: ..." followed by `usage` to `err` and returns
  /// true; the caller then exits with status 2.
  bool bad_usage(std::ostream& err, const std::string& prog,
                 const std::string& usage) const {
    if (!unknown.empty()) {
      err << prog << ": unknown option " << unknown << "\n" << usage;
    } else if (!invalid.empty()) {
      err << prog << ": malformed or out-of-range value: " << invalid << "\n"
          << usage;
    } else {
      return false;
    }
    return true;
  }

  static BenchArgs parse(int argc, char** argv) {
    // A malformed value is never atoi-coerced into a silently different
    // configuration: the field keeps its value and `invalid` records it.
    BenchArgs a;
    auto reject = [&a](const std::string& flag, const char* text) {
      if (a.invalid.empty()) a.invalid = flag + " " + text;
    };
    auto parse_int = [&](const std::string& flag, const char* text,
                         int fallback) {
      char* end = nullptr;
      errno = 0;
      const long v = std::strtol(text, &end, 10);
      if (end == text || *end != '\0' || errno == ERANGE ||
          v < INT_MIN || v > INT_MAX) {
        reject(flag, text);
        return fallback;
      }
      return static_cast<int>(v);
    };
    auto parse_double = [&](const std::string& flag, const char* text,
                            double fallback) {
      char* end = nullptr;
      errno = 0;
      const double v = std::strtod(text, &end);
      if (end == text || *end != '\0' || errno == ERANGE ||
          !std::isfinite(v)) {
        reject(flag, text);
        return fallback;
      }
      return v;
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--quick") {
        a.quick = true;
      } else if (arg == "--no-burst") {
        a.no_burst = true;
      } else if (arg == "--csv") {
        a.csv = true;
      } else if (arg == "--json") {
        a.json = true;
      } else if ((arg == "--seeds" || arg == "--replications") &&
                 i + 1 < argc) {
        a.seeds = parse_int(arg, argv[++i], a.seeds);
      } else if (arg == "--threads" && i + 1 < argc) {
        a.threads = parse_int(arg, argv[++i], a.threads);
      } else if (arg == "--out" && i + 1 < argc) {
        a.out = argv[++i];
      } else if (arg == "--base-seed" && i + 1 < argc) {
        char* end = nullptr;
        const char* text = argv[++i];
        errno = 0;
        const std::uint64_t v = std::strtoull(text, &end, 10);
        // strtoull wraps negatives and saturates past 2^64; both would
        // silently land in a different reproducibility universe.
        if (end == text || *end != '\0' || errno == ERANGE ||
            text[0] == '-') {
          reject(arg, text);
        } else {
          a.base_seed = v;
        }
      } else if (arg == "--max-points" && i + 1 < argc) {
        a.max_points = parse_int(arg, argv[++i], a.max_points);
      } else if (arg == "--journal" && i + 1 < argc) {
        a.journal = argv[++i];
      } else if (arg == "--resume") {
        a.resume = true;
      } else if (arg == "--checkpoint-dir" && i + 1 < argc) {
        a.checkpoint_dir = argv[++i];
      } else if (arg == "--rep-timeout" && i + 1 < argc) {
        a.rep_timeout = parse_double(arg, argv[++i], a.rep_timeout);
      } else if (arg == "--max-retries" && i + 1 < argc) {
        a.max_retries = parse_int(arg, argv[++i], a.max_retries);
      } else if (arg == "--keep-going") {
        a.keep_going = true;
      } else if (arg == "--quarantine-out" && i + 1 < argc) {
        a.quarantine_out = argv[++i];
      } else if ((arg == "--fig" || arg == "--scenario") && i + 1 < argc) {
        ++i;
      } else if (a.unknown.empty()) {
        a.unknown = arg;
      }
    }
    return a;
  }
};

}  // namespace btsc::core
