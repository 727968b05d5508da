#include "util/failpoint.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "util/strings.h"

namespace scalein::util {
namespace {

/// SplitMix64 step: the registry's probability stream. Chosen over util/rng
/// because a single atomic word advances lock-free under concurrent hits.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from one 64-bit draw.
double ToUnit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

Status ParseOneClause(std::string_view clause, FailpointConfig* out) {
  size_t eq = clause.find('=');
  if (eq == std::string_view::npos) {
    return Status::InvalidArgument("failpoint clause '" + std::string(clause) +
                                   "' is not <site>=<action>");
  }
  out->site = std::string(StripWhitespace(clause.substr(0, eq)));
  if (out->site.empty()) {
    return Status::InvalidArgument("failpoint clause with empty site name");
  }
  std::string_view action = StripWhitespace(clause.substr(eq + 1));

  std::string_view arg;  // inside (...) if present
  size_t paren = action.find('(');
  if (paren != std::string_view::npos) {
    if (action.back() != ')') {
      return Status::InvalidArgument("unbalanced '(' in failpoint action '" +
                                     std::string(action) + "'");
    }
    arg = action.substr(paren + 1, action.size() - paren - 2);
    action = action.substr(0, paren);
  }

  if (action == "error") {
    out->action = FailAction::kError;
  } else if (action == "delay") {
    out->action = FailAction::kDelay;
  } else {
    return Status::InvalidArgument("unknown failpoint action '" +
                                   std::string(action) +
                                   "' (want error|delay)");
  }

  // Default trigger/delay; refined by the argument below.
  out->trigger = FailTrigger::kAlways;
  out->delay_ms = out->action == FailAction::kDelay ? 1 : 0;
  if (arg.empty()) return Status::OK();

  arg = StripWhitespace(arg);
  auto parse_number = [](std::string_view text, double* value) {
    char* end = nullptr;
    std::string owned(text);
    *value = std::strtod(owned.c_str(), &end);
    return end == owned.c_str() + owned.size() && !owned.empty();
  };

  if (arg.substr(0, 6) == "every:") {
    double n = 0;
    if (!parse_number(arg.substr(6), &n) || n < 1) {
      return Status::InvalidArgument("bad every:N in failpoint arg '" +
                                     std::string(arg) + "'");
    }
    out->trigger = FailTrigger::kEveryNth;
    out->every_n = static_cast<uint64_t>(n);
    return Status::OK();
  }
  if (!arg.empty() && arg.back() == '%') {
    double pct = 0;
    if (!parse_number(arg.substr(0, arg.size() - 1), &pct) || pct < 0 ||
        pct > 100) {
      return Status::InvalidArgument("bad percentage in failpoint arg '" +
                                     std::string(arg) + "'");
    }
    out->trigger = FailTrigger::kProbability;
    out->probability = pct / 100.0;
    return Status::OK();
  }
  if (arg.size() > 2 && arg.substr(arg.size() - 2) == "ms") {
    double ms = 0;
    if (!parse_number(arg.substr(0, arg.size() - 2), &ms) || ms < 0) {
      return Status::InvalidArgument("bad duration in failpoint arg '" +
                                     std::string(arg) + "'");
    }
    if (out->action != FailAction::kDelay) {
      return Status::InvalidArgument(
          "duration argument only applies to delay actions");
    }
    out->delay_ms = static_cast<uint64_t>(ms);
    return Status::OK();
  }
  return Status::InvalidArgument("unparseable failpoint arg '" +
                                 std::string(arg) + "'");
}

}  // namespace

Status ParseFailpointSpec(const std::string& spec,
                          std::vector<FailpointConfig>* out, uint64_t* seed) {
  out->clear();
  *seed = 0;
  for (const std::string& piece : Split(spec, ';')) {
    std::string_view clause = StripWhitespace(piece);
    if (clause.empty()) continue;
    if (clause.substr(0, 5) == "seed=") {
      Result<uint64_t> s = ParseInteger<uint64_t>(clause.substr(5));
      if (!s.ok()) {
        return Status::InvalidArgument("bad failpoint seed '" +
                                       std::string(clause) + "'");
      }
      *seed = *s;
      continue;
    }
    FailpointConfig config;
    SI_RETURN_IF_ERROR(ParseOneClause(clause, &config));
    out->push_back(std::move(config));
  }
  return Status::OK();
}

std::atomic<bool> Failpoints::armed_flag_{false};

Failpoints& Failpoints::Global() {
  static Failpoints* instance = new Failpoints();
  return *instance;
}

Status Failpoints::Configure(const std::string& spec) {
  std::vector<FailpointConfig> configs;
  uint64_t seed = 0;
  SI_RETURN_IF_ERROR(ParseFailpointSpec(spec, &configs, &seed));
  armed_flag_.store(false, std::memory_order_relaxed);
  sites_.clear();
  for (FailpointConfig& config : configs) {
    auto state = std::make_unique<SiteState>();
    state->config = std::move(config);
    sites_.push_back(std::move(state));
  }
  rng_state_.store(seed, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  fires_.store(0, std::memory_order_relaxed);
  if (!sites_.empty()) armed_flag_.store(true, std::memory_order_release);
  return Status::OK();
}

Status Failpoints::InitFromEnv() {
  const char* spec = std::getenv("SCALEIN_FAILPOINTS");
  if (spec == nullptr || spec[0] == '\0') return Status::OK();
  return Configure(spec);
}

void Failpoints::Clear() {
  armed_flag_.store(false, std::memory_order_release);
}

Status Failpoints::Hit(const char* site) {
  if (!armed()) return Status::OK();
  for (const std::unique_ptr<SiteState>& state : sites_) {
    const FailpointConfig& config = state->config;
    if (config.site != site) continue;
    hits_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t count =
        state->hit_count.fetch_add(1, std::memory_order_relaxed) + 1;
    bool fire = false;
    switch (config.trigger) {
      case FailTrigger::kAlways:
        fire = true;
        break;
      case FailTrigger::kEveryNth:
        fire = count % config.every_n == 0;
        break;
      case FailTrigger::kProbability: {
        uint64_t expected = rng_state_.load(std::memory_order_relaxed);
        uint64_t draw;
        uint64_t next;
        do {
          next = expected;
          draw = SplitMix64(&next);
        } while (!rng_state_.compare_exchange_weak(expected, next,
                                                   std::memory_order_relaxed));
        fire = ToUnit(draw) < config.probability;
        break;
      }
    }
    if (!fire) return Status::OK();
    fires_.fetch_add(1, std::memory_order_relaxed);
    if (auto* listener = fire_listener_.load(std::memory_order_relaxed)) {
      listener(site,
               config.action == FailAction::kDelay ? "delay" : "error");
    }
    if (config.action == FailAction::kDelay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(config.delay_ms));
      return Status::OK();
    }
    return Status::Internal("failpoint '" + config.site + "' fired");
  }
  return Status::OK();
}

std::vector<FailpointConfig> Failpoints::configs() const {
  std::vector<FailpointConfig> out;
  if (!armed()) return out;
  out.reserve(sites_.size());
  for (const std::unique_ptr<SiteState>& state : sites_) {
    out.push_back(state->config);
  }
  return out;
}

}  // namespace scalein::util
