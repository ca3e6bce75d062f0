// Sweep-service job specs and the line-delimited JSON codec they travel
// in (socket protocol, --job-file batch mode, and the durable .job files
// in the jobs directory).
//
// The wire format is one flat JSON object per line. The parser below is
// deliberately minimal — flat objects of string / number / bool / null
// values, no nesting — because that is the entire protocol; a typo'd or
// unknown key is a hard parse error (reject-with-reason beats silently
// running the wrong sweep).
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

namespace btsc::service {

/// Protocol/spec-layer failure: malformed JSON, unknown key, bad value,
/// invalid job id. Always carries a client-presentable reason.
class JobError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One value of a flat JSON object. Numbers keep their raw text so
/// 64-bit seeds survive without a double round-trip.
struct JsonValue {
  enum class Kind { kString, kNumber, kBool, kNull };
  Kind kind = Kind::kNull;
  std::string text;  // decoded for strings, raw spelling for numbers
  bool boolean = false;

  std::uint64_t as_u64(const std::string& key) const;
  int as_int(const std::string& key) const;
  double as_double(const std::string& key) const;
  bool as_bool(const std::string& key) const;
  const std::string& as_string(const std::string& key) const;
};

using JsonObject = std::map<std::string, JsonValue>;

/// Parses one line holding one flat JSON object. Throws JobError on
/// anything else (nested containers included).
JsonObject parse_json_object(const std::string& line);

/// JSON string escaping for the tiny emitter side of the protocol.
std::string json_escape(const std::string& s);

/// One sweep request. Mirrors the btsc-sweep CLI: the point filter is
/// `max_points` (first N points of the scenario's list) and the
/// replication range is `replications` (replications 0..N-1 of every
/// point) — the same result-defining knobs the journal binds, so a
/// job's journal resumes exactly like a CLI `--resume`.
struct JobSpec {
  std::string id;        // required; [A-Za-z0-9._-], max 64 chars
  std::string scenario;  // required; registry id, e.g. "fig08"
  int threads = 1;       // sweep workers INSIDE this job
  int replications = 0;  // 0 = scenario default
  bool quick = false;
  std::uint64_t base_seed = 0;  // 0 = scenario default
  int max_points = 0;           // 0 = all points
  double rep_timeout_s = 0.0;
  int max_retries = 0;
  bool keep_going = false;

  bool operator==(const JobSpec&) const = default;
};

/// Decodes a JobSpec from a parsed object. `allow_extra` names keys the
/// caller has already consumed (e.g. "op" on the socket). Validates id
/// and scenario presence/charset; throws JobError with the reason.
JobSpec job_from_json(const JsonObject& obj,
                      const std::string& allow_extra = "");

/// Parses one job line (file or socket payload).
JobSpec parse_job_line(const std::string& line);

/// Canonical one-line JSON encoding (the durable .job format; parsing
/// it back yields an equal JobSpec).
std::string format_job_line(const JobSpec& spec);

}  // namespace btsc::service
