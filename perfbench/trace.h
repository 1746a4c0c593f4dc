#pragma once

// In-memory span recorder for the traced run. Spans are taken in the
// benchmark's own code around each call into a library layer; the library
// itself carries no tracing. Each recording thread owns a lane, so recording
// takes no lock. Spans are written out once, when the run ends.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;        ///< index in the same lane, -1 for a root span
    uint64_t request;  ///< spans of one serving request share this id (0: none)
  };

 private:
  struct Lane {
    std::vector<Span> spans;
    std::vector<int> open;  ///< indices of the spans not yet ended
  };

 public:
  /// `lanes` is the number of threads that record; each passes its own
  /// lane index to Scope.
  Tracer(bool on, int lanes) : on_(on), lanes_(static_cast<size_t>(lanes)) {}

  bool on() const { return on_; }

  /// Ends its span when destroyed. A no-op when tracing is off.
  class Scope {
   public:
    Scope(Tracer* t, int lane, const char* name, uint64_t request)
        : lane_(t->on_ ? &t->lanes_[static_cast<size_t>(lane)] : nullptr),
          t0_(t->t0_) {
      if (lane_ == nullptr) return;
      int parent = lane_->open.empty() ? -1 : lane_->open.back();
      if (request == 0 && parent >= 0) {
        request = lane_->spans[static_cast<size_t>(parent)].request;
      }
      index_ = static_cast<int>(lane_->spans.size());
      lane_->spans.push_back({name, Now(), 0, parent, request});
      lane_->open.push_back(index_);
    }
    ~Scope() {
      if (lane_ == nullptr) return;
      lane_->spans[static_cast<size_t>(index_)].end_ns = Now();
      lane_->open.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    int64_t Now() const {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - t0_)
          .count();
    }
    Lane* lane_;
    std::chrono::steady_clock::time_point t0_;
    int index_ = -1;
  };

  /// Self time per layer in seconds: a span's duration minus the part its
  /// child spans cover, summed over spans whose name starts with "<layer>.".
  std::map<std::string, double> SelfSecondsByLayer() const {
    std::map<std::string, double> out;
    for (const Lane& lane : lanes_) {
      std::vector<int64_t> self(lane.spans.size());
      for (size_t i = 0; i < lane.spans.size(); ++i) {
        self[i] += lane.spans[i].end_ns - lane.spans[i].start_ns;
        int p = lane.spans[i].parent;
        if (p >= 0) {
          self[static_cast<size_t>(p)] -=
              lane.spans[i].end_ns - lane.spans[i].start_ns;
        }
      }
      for (size_t i = 0; i < lane.spans.size(); ++i) {
        out[Layer(lane.spans[i].name)] += static_cast<double>(self[i]) / 1e9;
      }
    }
    return out;
  }

  /// Writes every span as one JSON object per line under "spans".
  void WriteSpans(std::FILE* f) const {
    std::fprintf(f, "\"spans\": [\n");
    bool first = true;
    for (size_t l = 0; l < lanes_.size(); ++l) {
      for (const Span& s : lanes_[l].spans) {
        std::fprintf(f,
                     "%s{\"lane\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %d, \"request\": %llu}",
                     first ? "" : ",\n", l, s.name,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns), s.parent,
                     static_cast<unsigned long long>(s.request));
        first = false;
      }
    }
    std::fprintf(f, "\n]");
  }

  static std::string Layer(const char* name) {
    std::string n(name);
    size_t dot = n.find('.');
    return dot == std::string::npos ? n : n.substr(0, dot);
  }

 private:
  bool on_;
  std::vector<Lane> lanes_;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

}  // namespace perfbench
