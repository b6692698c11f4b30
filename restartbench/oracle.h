// Seeded row generator and the store-independent correctness oracle.
//
// The oracle keeps its own compact columnar copy of every row the leaves
// acknowledged and answers a query by a plain scalar scan over it. It
// shares no code with the store or the query engine: no codecs, no row
// blocks, no histograms. Counts, mins and maxes must match exactly; sums
// and averages within floating-point tolerance (the engine sums per block
// and merges); percentiles within the engine histogram's documented bucket
// error (query/histogram.h: 512 geometric buckets over [1e-3, 1e9), ratio
// ~5.5% per bucket, the reported value is the bucket's geometric midpoint).
#ifndef RESTARTBENCH_ORACLE_H_
#define RESTARTBENCH_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "columnar/row.h"
#include "query/query.h"
#include "query/result.h"

namespace restartbench {

using scuba::Aggregate;
using scuba::AggregateOp;
using scuba::CompareOp;
using scuba::Predicate;
using scuba::Query;
using scuba::QueryResult;
using scuba::Row;
using scuba::Value;

/// splitmix64: the benchmark's only source of randomness, seeded by --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

constexpr size_t kServices = 12;
constexpr size_t kEndpoints = 48;
constexpr size_t kHosts = 200;
constexpr int64_t kStatusCodes[] = {200, 404, 500, 503};

inline std::vector<std::string> MakeNames(const char* prefix, size_t n) {
  std::vector<std::string> names;
  for (size_t i = 0; i < n; ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s%03zu", prefix, i);
    names.emplace_back(buf);
  }
  return names;
}
inline const std::vector<std::string>& ServiceNames() {
  static const std::vector<std::string> names = MakeNames("svc_", kServices);
  return names;
}
inline const std::vector<std::string>& EndpointNames() {
  static const std::vector<std::string> names =
      MakeNames("/api/ep_", kEndpoints);
  return names;
}
inline const std::vector<std::string>& HostNames() {
  static const std::vector<std::string> names = MakeNames("host-", kHosts);
  return names;
}

/// One generated service-log row in the oracle's compact encoding.
struct CompactRow {
  int64_t time = 0;
  uint8_t service = 0;
  uint8_t endpoint = 0;
  uint16_t host = 0;
  uint8_t status = 0;          // index into kStatusCodes
  uint16_t latency_tenths = 0; // latency_ms = latency_tenths / 10.0
  uint32_t bytes_out = 0;
};

/// Deterministic per-table row stream: `rows_per_second` rows per second of
/// event time, strictly chronological, skewed service/endpoint popularity.
class RowStream {
 public:
  RowStream(uint64_t seed, int64_t start_time, int64_t rows_per_second)
      : rng_(seed), start_time_(start_time), rps_(rows_per_second) {}

  CompactRow Next() {
    CompactRow r;
    r.time = start_time_ + static_cast<int64_t>(generated_++) / rps_;
    double u = rng_.Uniform();
    r.service = static_cast<uint8_t>(std::min<size_t>(
        kServices - 1, static_cast<size_t>(u * u * kServices)));
    u = rng_.Uniform();
    r.endpoint = static_cast<uint8_t>(std::min<size_t>(
        kEndpoints - 1, static_cast<size_t>(u * std::sqrt(u) * kEndpoints)));
    r.host = static_cast<uint16_t>(rng_.Below(kHosts));
    u = rng_.Uniform();
    r.status = u < 0.90 ? 0 : u < 0.95 ? 1 : u < 0.98 ? 2 : 3;
    // Log-uniform latency at 0.1 ms precision, 0.1 ms .. ~2 s.
    r.latency_tenths = static_cast<uint16_t>(
        std::min(20000.0, std::exp(rng_.Uniform() * 9.9)));
    if (r.latency_tenths == 0) r.latency_tenths = 1;
    u = rng_.Uniform();
    r.bytes_out = 200 + 64 * static_cast<uint32_t>(u * u * 1024);
    return r;
  }

  /// Time of the next row.
  int64_t current_time() const {
    return start_time_ + static_cast<int64_t>(generated_) / rps_;
  }

 private:
  Rng rng_;
  int64_t start_time_;
  int64_t rps_;
  uint64_t generated_ = 0;
};

inline double LatencyMs(const CompactRow& r) {
  return static_cast<double>(r.latency_tenths) / 10.0;
}

inline Row ToRow(const CompactRow& r) {
  Row row;
  row.fields.reserve(7);
  row.SetTime(r.time);
  row.Set("service", ServiceNames()[r.service]);
  row.Set("endpoint", EndpointNames()[r.endpoint]);
  row.Set("host", HostNames()[r.host]);
  row.Set("status", kStatusCodes[r.status]);
  row.Set("latency_ms", LatencyMs(r));
  row.Set("bytes_out", static_cast<int64_t>(r.bytes_out));
  return row;
}

/// Columns the oracle understands.
enum class Col { kTime, kService, kEndpoint, kHost, kStatus, kLatency, kBytes };

inline bool ParseCol(const std::string& name, Col* col) {
  static const std::map<std::string, Col> kCols = {
      {"time", Col::kTime},         {"service", Col::kService},
      {"endpoint", Col::kEndpoint}, {"host", Col::kHost},
      {"status", Col::kStatus},     {"latency_ms", Col::kLatency},
      {"bytes_out", Col::kBytes}};
  auto it = kCols.find(name);
  if (it == kCols.end()) return false;
  *col = it->second;
  return true;
}

inline bool IsStringCol(Col c) {
  return c == Col::kService || c == Col::kEndpoint || c == Col::kHost;
}

inline double NumberOf(const CompactRow& r, Col c) {
  switch (c) {
    case Col::kTime:
      return static_cast<double>(r.time);
    case Col::kStatus:
      return static_cast<double>(kStatusCodes[r.status]);
    case Col::kLatency:
      return LatencyMs(r);
    default:
      return static_cast<double>(r.bytes_out);
  }
}

/// Group-key part as the engine reports it: int64 for time buckets and int
/// columns, string for string columns. Encoded to one comparable string.
inline void AppendKeyPart(const Value& v, std::string* key) {
  if (const int64_t* i = std::get_if<int64_t>(&v)) {
    *key += "i" + std::to_string(*i);
  } else if (const double* d = std::get_if<double>(&v)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "d%.17g", *d);
    *key += buf;
  } else {
    *key += "s" + std::get<std::string>(v);
  }
  *key += '\x1f';
}

/// Acknowledged rows of every table, in ingest (= time) order.
class Oracle {
 public:
  explicit Oracle(size_t num_tables) : tables_(num_tables) {}

  void Add(size_t table, const CompactRow& row) {
    tables_[table].push_back(row);
  }
  uint64_t TotalRows() const {
    uint64_t n = 0;
    for (const auto& t : tables_) n += t.size();
    return n;
  }
  int64_t MaxTime(size_t table) const {
    return tables_[table].empty() ? 0 : tables_[table].back().time;
  }

  /// Checks `result` (merged over all leaves) against the exact answer.
  /// On mismatch returns false and describes the first difference.
  bool Check(size_t table, const Query& q, const QueryResult& result,
             std::string* why) {
    // Repeated queries over unchanged rows (dashboards on a table nobody
    // ingests into) reuse the scan; the key holds every literal and the
    // table's row count, so any new row forces a fresh scan.
    std::string memo_key = std::to_string(table) + "|" +
                           std::to_string(tables_[table].size()) + "|" +
                           std::to_string(q.begin_time) + "|" +
                           std::to_string(q.end_time) + "|" + q.Fingerprint();
    for (const Predicate& p : q.predicates) AppendKeyPart(p.literal, &memo_key);
    auto memo = memo_.find(memo_key);
    if (memo == memo_.end()) {
      std::map<std::string, std::vector<double>> fresh;
      if (!Evaluate(table, q, &fresh, why)) return false;
      if (memo_.size() >= 256) memo_.clear();
      memo = memo_.emplace(memo_key, std::move(fresh)).first;
    }
    const std::map<std::string, std::vector<double>>& expected = memo->second;
    std::map<std::string, std::vector<double>> actual;
    for (const auto& row : result.Finalize(q.aggregates)) {
      std::string key;
      for (const Value& v : row.group_key) AppendKeyPart(v, &key);
      actual[key] = row.aggregates;
    }
    if (actual.size() != expected.size()) {
      *why = "group count " + std::to_string(actual.size()) + " != oracle " +
             std::to_string(expected.size());
      return false;
    }
    for (const auto& [key, want] : expected) {
      auto it = actual.find(key);
      if (it == actual.end()) {
        *why = "missing group " + Printable(key);
        return false;
      }
      for (size_t a = 0; a < want.size(); ++a) {
        if (!Close(q.aggregates[a].op, it->second[a], want[a])) {
          char buf[160];
          std::snprintf(buf, sizeof(buf), "%s: got %.17g want %.17g",
                        std::string(scuba::AggregateOpName(q.aggregates[a].op))
                            .c_str(),
                        it->second[a], want[a]);
          *why = "group " + Printable(key) + " " + buf;
          return false;
        }
      }
    }
    return true;
  }

  /// Documented bound of the engine's percentile: the reported bucket
  /// midpoint lies within one bucket ratio of the exact nearest-rank value.
  static constexpr double kPercentileRelError = 0.056;

 private:
  static std::string Printable(std::string key) {
    std::replace(key.begin(), key.end(), '\x1f', '|');
    return key;
  }

  static bool Close(AggregateOp op, double got, double want) {
    switch (op) {
      case AggregateOp::kCount:
      case AggregateOp::kMin:
      case AggregateOp::kMax:
        return got == want;
      case AggregateOp::kSum:
      case AggregateOp::kAvg:
        return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
      default:
        return std::fabs(got - want) <= kPercentileRelError * std::fabs(want);
    }
  }

  struct Acc {
    uint64_t count = 0;
    std::vector<double> sum, min, max;
    std::vector<std::vector<double>> values;  // percentile aggregates only
  };

  /// Dictionary code of a low-cardinality column, and its cardinality.
  static uint32_t CodeOf(const CompactRow& r, Col c) {
    switch (c) {
      case Col::kService: return r.service;
      case Col::kEndpoint: return r.endpoint;
      case Col::kHost: return r.host;
      default: return r.status;
    }
  }
  static uint32_t Cardinality(Col c) {
    switch (c) {
      case Col::kService: return kServices;
      case Col::kEndpoint: return kEndpoints;
      case Col::kHost: return kHosts;
      default: return 4;
    }
  }
  static Value ValueOfCode(Col c, uint32_t code) {
    switch (c) {
      case Col::kService: return Value(ServiceNames()[code]);
      case Col::kEndpoint: return Value(EndpointNames()[code]);
      case Col::kHost: return Value(HostNames()[code]);
      default: return Value(kStatusCodes[code]);
    }
  }

  /// Scans the rows in [begin_time, end_time] once. Groups are dense
  /// integer keys (time bucket, then dictionary codes), so the per-row work
  /// is a few compares and adds; keys become strings only per group.
  bool Evaluate(size_t table, const Query& q,
                std::map<std::string, std::vector<double>>* out,
                std::string* why) const {
    const std::vector<CompactRow>& rows = tables_[table];
    struct Pred {
      Col col;
      CompareOp op;
      int64_t code = -1;  // string predicates compare dictionary codes
      double d = 0;
    };
    std::vector<Pred> preds;
    for (const Predicate& p : q.predicates) {
      Pred pr;
      if (!ParseCol(p.column, &pr.col)) {
        *why = "oracle: unknown column " + p.column;
        return false;
      }
      pr.op = p.op;
      if (const std::string* s = std::get_if<std::string>(&p.literal)) {
        if (!IsStringCol(pr.col) ||
            (p.op != CompareOp::kEq && p.op != CompareOp::kNe)) {
          *why = "oracle: unsupported string predicate on " + p.column;
          return false;
        }
        for (uint32_t c = 0; c < Cardinality(pr.col); ++c) {
          if (std::get<std::string>(ValueOfCode(pr.col, c)) == *s) pr.code = c;
        }
      } else if (const int64_t* i = std::get_if<int64_t>(&p.literal)) {
        pr.d = static_cast<double>(*i);
      } else {
        pr.d = std::get<double>(p.literal);
      }
      preds.push_back(std::move(pr));
    }
    std::vector<Col> group_cols;
    uint64_t key_space = 1;
    for (const std::string& g : q.group_by) {
      Col c;
      if (!ParseCol(g, &c) ||
          !(IsStringCol(c) || c == Col::kStatus)) {
        *why = "oracle: unsupported group column " + g;
        return false;
      }
      group_cols.push_back(c);
      key_space *= Cardinality(c);
    }
    const size_t na = q.aggregates.size();
    std::vector<Col> agg_cols(na, Col::kTime);
    for (size_t a = 0; a < na; ++a) {
      if (q.aggregates[a].op != AggregateOp::kCount &&
          !ParseCol(q.aggregates[a].column, &agg_cols[a])) {
        *why = "oracle: unknown aggregate column " + q.aggregates[a].column;
        return false;
      }
    }

    auto lo = std::lower_bound(
        rows.begin(), rows.end(), q.begin_time,
        [](const CompactRow& r, int64_t t) { return r.time < t; });
    auto hi = std::upper_bound(
        rows.begin(), rows.end(), q.end_time,
        [](int64_t t, const CompactRow& r) { return t < r.time; });
    if (lo >= hi) return true;
    const int64_t w = q.time_bucket_seconds;
    const int64_t first_bucket = w > 0 ? lo->time / w : 0;
    const uint64_t buckets =
        w > 0 ? static_cast<uint64_t>((hi - 1)->time / w - first_bucket + 1)
              : 1;
    if (buckets * key_space > (1u << 22)) {
      *why = "oracle: group space too large";
      return false;
    }
    std::vector<Acc> groups(buckets * key_space);

    for (auto it = lo; it < hi; ++it) {
      const CompactRow& r = *it;
      bool keep = true;
      for (const Pred& p : preds) {
        if (IsStringCol(p.col)) {
          const bool eq = static_cast<int64_t>(CodeOf(r, p.col)) == p.code;
          keep = p.op == CompareOp::kEq ? eq : !eq;
        } else {
          const double v = NumberOf(r, p.col);
          switch (p.op) {
            case CompareOp::kEq: keep = v == p.d; break;
            case CompareOp::kNe: keep = v != p.d; break;
            case CompareOp::kLt: keep = v < p.d; break;
            case CompareOp::kLe: keep = v <= p.d; break;
            case CompareOp::kGt: keep = v > p.d; break;
            default: keep = v >= p.d; break;
          }
        }
        if (!keep) break;
      }
      if (!keep) continue;
      uint64_t key = w > 0 ? static_cast<uint64_t>(r.time / w - first_bucket)
                           : 0;
      for (Col c : group_cols) key = key * Cardinality(c) + CodeOf(r, c);
      Acc& acc = groups[key];
      if (acc.count == 0) {
        acc.sum.assign(na, 0.0);
        acc.min.assign(na, 0.0);
        acc.max.assign(na, 0.0);
        acc.values.resize(na);
      }
      for (size_t a = 0; a < na; ++a) {
        if (q.aggregates[a].op == AggregateOp::kCount) continue;
        const double v = NumberOf(r, agg_cols[a]);
        acc.sum[a] += v;
        if (acc.count == 0 || v < acc.min[a]) acc.min[a] = v;
        if (acc.count == 0 || v > acc.max[a]) acc.max[a] = v;
        if (scuba::IsPercentileOp(q.aggregates[a].op)) {
          acc.values[a].push_back(v);
        }
      }
      ++acc.count;
    }

    for (uint64_t key = 0; key < groups.size(); ++key) {
      Acc& acc = groups[key];
      if (acc.count == 0) continue;
      // Decode the dense key back into the engine's group-key values.
      std::vector<Value> parts(group_cols.size());
      uint64_t rest = key;
      for (size_t g = group_cols.size(); g-- > 0;) {
        const uint32_t card = Cardinality(group_cols[g]);
        parts[g] = ValueOfCode(group_cols[g], static_cast<uint32_t>(rest % card));
        rest /= card;
      }
      std::string text;
      if (w > 0) {
        AppendKeyPart(Value((first_bucket + static_cast<int64_t>(rest)) * w),
                      &text);
      }
      for (const Value& v : parts) AppendKeyPart(v, &text);

      std::vector<double> aggs(na);
      for (size_t a = 0; a < na; ++a) {
        switch (q.aggregates[a].op) {
          case AggregateOp::kCount: aggs[a] = static_cast<double>(acc.count); break;
          case AggregateOp::kSum: aggs[a] = acc.sum[a]; break;
          case AggregateOp::kMin: aggs[a] = acc.min[a]; break;
          case AggregateOp::kMax: aggs[a] = acc.max[a]; break;
          case AggregateOp::kAvg:
            aggs[a] = acc.sum[a] / static_cast<double>(acc.count);
            break;
          default: {
            const double p = q.aggregates[a].op == AggregateOp::kP50   ? 50
                             : q.aggregates[a].op == AggregateOp::kP90 ? 90
                                                                       : 99;
            std::vector<double>& v = acc.values[a];
            // Nearest-rank percentile, the definition the engine uses.
            size_t rank = static_cast<size_t>(
                std::ceil(p / 100.0 * static_cast<double>(v.size())));
            rank = std::max<size_t>(rank, 1);
            std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
            aggs[a] = v[rank - 1];
          }
        }
      }
      (*out)[text] = std::move(aggs);
    }
    return true;
  }

  std::vector<std::vector<CompactRow>> tables_;
  std::map<std::string, std::map<std::string, std::vector<double>>> memo_;
};

}  // namespace restartbench

#endif  // RESTARTBENCH_ORACLE_H_
