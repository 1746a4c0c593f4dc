#pragma once

// Seeded input generators for the benchmark. The benchmark makes its own
// inputs (rather than calling the library's data generators) so that a change
// to the library can never change what the benchmark feeds it: the program
// under test only ever receives the generated tables.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "joinboost.h"

namespace perfbench {

namespace jb = joinboost;

/// splitmix64: small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int64_t Int(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  /// Uniform double in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Gaussian() {
    double u1 = Unit();
    double u2 = Unit();
    if (u1 < 1e-300) u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  uint64_t state_;
};

/// A column of a generated table, typed as the engine stores it.
struct GenColumn {
  std::string name;
  std::vector<int64_t> ints;  ///< used when !is_double
  std::vector<double> dbls;   ///< used when is_double
  bool is_double = false;
};

struct GenTable {
  std::string name;
  std::vector<GenColumn> cols;

  jb::TablePtr Build() const {
    jb::TableBuilder b(name);
    for (const auto& c : cols) {
      if (c.is_double) {
        b.AddDoubles(c.name, c.dbls);
      } else {
        b.AddInts(c.name, c.ints);
      }
    }
    return b.Build();
  }

  jb::exec::ExecTable ToExecTable() const {
    jb::exec::ExecTable t;
    for (const auto& c : cols) {
      t.cols.push_back({"", c.name,
                        c.is_double ? jb::exec::VectorData::FromDoubles(c.dbls)
                                    : jb::exec::VectorData::FromInts(c.ints)});
      t.rows = c.is_double ? c.dbls.size() : c.ints.size();
    }
    return t;
  }
};

/// One relation of the training join graph.
struct Relation {
  std::string table;
  std::vector<std::string> features;
  std::string y;  ///< target column ("" for dimensions)
};

struct Edge {
  std::string from, to;
  std::vector<std::string> keys;
};

/// A normalized schema: its dimension tables (fixed), a generator of fact
/// rows (used for the initial load and for every later append), and the join
/// graph the trainer sees.
class Schema {
 public:
  virtual ~Schema() = default;
  Schema() = default;
  Schema(const Schema&) = delete;
  Schema& operator=(const Schema&) = delete;

  virtual std::string fact() const = 0;
  virtual std::vector<GenTable> Dimensions() const = 0;
  /// `n` fact rows drawn from `rng`; keys always reference existing
  /// dimension rows.
  virtual GenTable FactRows(Rng* rng, size_t n, bool sort_by_date) const = 0;
  virtual std::vector<Relation> Relations() const = 0;
  virtual std::vector<Edge> Edges() const = 0;
};

/// The paper's Favorita-like snowflake (its Figure 7): sales joined N-to-1 to
/// items, stores, dates, oil and the composite-keyed (store_id, date_id)
/// transactions. Every dimension carries one signal feature drawn from
/// U[1, 1000] and one noise feature; y follows the paper's footnote-7
/// formula plus Gaussian noise.
class Favorita : public Schema {
 public:
  Favorita(uint64_t seed, size_t items, size_t stores, size_t dates)
      : items_(items), stores_(stores), dates_(dates) {
    Rng rng(seed ^ 0xF00DULL);
    f_item_ = Imputed(&rng, items);
    x_item_ = Imputed(&rng, items);
    f_store_ = Imputed(&rng, stores);
    x_store_ = Imputed(&rng, stores);
    f_date_ = Imputed(&rng, dates);
    x_date_ = Imputed(&rng, dates);
    f_oil_ = Imputed(&rng, dates);
    x_oil_ = Imputed(&rng, dates);
    f_trans_ = Imputed(&rng, stores * dates);
    x_trans_ = Imputed(&rng, stores * dates);
  }

  std::string fact() const override { return "sales"; }

  std::vector<GenTable> Dimensions() const override {
    std::vector<int64_t> t_store, t_date;
    for (size_t s = 0; s < stores_; ++s) {
      for (size_t d = 0; d < dates_; ++d) {
        t_store.push_back(static_cast<int64_t>(s));
        t_date.push_back(static_cast<int64_t>(d));
      }
    }
    return {
        {"items", {Keys("item_id", items_), Dbl("f_item", f_item_),
                   Dbl("xi0", x_item_)}},
        {"stores", {Keys("store_id", stores_), Dbl("f_store", f_store_),
                    Dbl("xst0", x_store_)}},
        {"dates", {Keys("date_id", dates_), Dbl("f_date", f_date_),
                   Dbl("xd0", x_date_)}},
        {"oil", {Keys("date_id", dates_), Dbl("f_oil", f_oil_),
                 Dbl("xo0", x_oil_)}},
        {"transactions", {Int("store_id", t_store), Int("date_id", t_date),
                          Dbl("f_trans", f_trans_), Dbl("xt0", x_trans_)}},
    };
  }

  GenTable FactRows(Rng* rng, size_t n, bool sort_by_date) const override {
    std::vector<int64_t> item(n), store(n), date(n);
    std::vector<double> promo(n), xs(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      item[i] = rng->Int(0, static_cast<int64_t>(items_) - 1);
      store[i] = rng->Int(0, static_cast<int64_t>(stores_) - 1);
      date[i] = rng->Int(0, static_cast<int64_t>(dates_) - 1);
      promo[i] = static_cast<double>(rng->Int(0, 1));
      xs[i] = static_cast<double>(rng->Int(1, 1000));
      double fi = f_item_[static_cast<size_t>(item[i])];
      double fs = f_store_[static_cast<size_t>(store[i])];
      double fd = f_date_[static_cast<size_t>(date[i])];
      double fo = f_oil_[static_cast<size_t>(date[i])];
      double ft = f_trans_[static_cast<size_t>(store[i]) * dates_ +
                           static_cast<size_t>(date[i])];
      y[i] = fi * std::log(fi) / 100.0 + std::log(fo) * 50.0 - fd - fs +
             ft * ft / 1000.0 + rng->Gaussian() * 10.0;
    }
    GenTable t{"sales",
               {Int("item_id", item), Int("store_id", store),
                Int("date_id", date), Dbl("onpromotion", promo),
                Dbl("xs0", xs), Dbl("unit_sales", y)}};
    // Sales arrive date-ordered, as in the real feed; zone maps on the date
    // key then have genuine skipping power.
    if (sort_by_date) SortBy(&t, 2);
    return t;
  }

  std::vector<Relation> Relations() const override {
    return {{"sales", {"onpromotion", "xs0"}, "unit_sales"},
            {"items", {"f_item", "xi0"}, ""},
            {"stores", {"f_store", "xst0"}, ""},
            {"dates", {"f_date", "xd0"}, ""},
            {"oil", {"f_oil", "xo0"}, ""},
            {"transactions", {"f_trans", "xt0"}, ""}};
  }

  std::vector<Edge> Edges() const override {
    return {{"sales", "items", {"item_id"}},
            {"sales", "stores", {"store_id"}},
            {"sales", "dates", {"date_id"}},
            {"sales", "oil", {"date_id"}},
            {"sales", "transactions", {"store_id", "date_id"}}};
  }

  static GenColumn Int(const std::string& name, std::vector<int64_t> v) {
    GenColumn c;
    c.name = name;
    c.ints = std::move(v);
    return c;
  }
  static GenColumn Dbl(const std::string& name, std::vector<double> v) {
    GenColumn c;
    c.name = name;
    c.dbls = std::move(v);
    c.is_double = true;
    return c;
  }
  static GenColumn Keys(const std::string& name, size_t n, int64_t first = 0) {
    std::vector<int64_t> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = first + static_cast<int64_t>(i);
    return Int(name, std::move(v));
  }
  static std::vector<double> Imputed(Rng* rng, size_t n) {
    std::vector<double> v(n);
    for (auto& x : v) x = static_cast<double>(rng->Int(1, 1000));
    return v;
  }
  /// Stable sort of every column by the int column at `key`.
  static void SortBy(GenTable* t, size_t key) {
    const std::vector<int64_t>& k = t->cols[key].ints;
    std::vector<size_t> order(k.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return k[a] < k[b]; });
    for (auto& c : t->cols) {
      if (c.is_double) {
        std::vector<double> out(order.size());
        for (size_t i = 0; i < order.size(); ++i) out[i] = c.dbls[order[i]];
        c.dbls = std::move(out);
      } else {
        std::vector<int64_t> out(order.size());
        for (size_t i = 0; i < order.size(); ++i) out[i] = c.ints[order[i]];
        c.ints = std::move(out);
      }
    }
  }

 private:
  size_t items_, stores_, dates_;
  std::vector<double> f_item_, x_item_, f_store_, x_store_, f_date_, x_date_,
      f_oil_, x_oil_, f_trans_, x_trans_;
};

/// The §5.3.2 pilot study's fact F(s, d, c0..c9) with its one dimension
/// dim_d(d, f_d). The ten payload columns are what a CREATE-based residual
/// update must copy on every boosting round.
class Pilot : public Schema {
 public:
  Pilot(uint64_t seed, int64_t d_domain, int payload_columns)
      : d_domain_(d_domain), payload_(payload_columns) {
    Rng rng(seed ^ 0xD1D1ULL);
    f_d_ = Favorita::Imputed(&rng, static_cast<size_t>(d_domain));
  }

  std::string fact() const override { return "f"; }

  std::vector<GenTable> Dimensions() const override {
    return {{"dim_d",
             {Favorita::Keys("d", static_cast<size_t>(d_domain_), 1),
              Favorita::Dbl("f_d", f_d_)}}};
  }

  GenTable FactRows(Rng* rng, size_t n, bool) const override {
    std::vector<int64_t> d(n);
    std::vector<double> s(n);
    for (size_t i = 0; i < n; ++i) {
      d[i] = rng->Int(1, d_domain_);
      s[i] = f_d_[static_cast<size_t>(d[i] - 1)] / 10.0 + rng->Gaussian() * 5.0;
    }
    GenTable t{"f", {Favorita::Int("d", d), Favorita::Dbl("s_val", s)}};
    for (int k = 0; k < payload_; ++k) {
      std::vector<double> c(n);
      for (auto& v : c) v = rng->Unit();
      t.cols.push_back(Favorita::Dbl("c" + std::to_string(k), std::move(c)));
    }
    return t;
  }

  std::vector<Relation> Relations() const override {
    return {{"f", {}, "s_val"}, {"dim_d", {"f_d"}, ""}};
  }

  std::vector<Edge> Edges() const override { return {{"f", "dim_d", {"d"}}}; }

 private:
  int64_t d_domain_;
  int payload_;
  std::vector<double> f_d_;
};

}  // namespace perfbench
