#include "fabric/spec.hpp"

// FCRLINT_ALLOW(ensure-arg): spec text arrives from CLI flags and the wire
// (worker Hello), i.e. user/remote input — parse failures throw structured
// fcr::Error (kConfig) for the one-line CLI diagnosis, never
// invalid_argument.

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>

#include "algorithms/registry.hpp"
#include "deploy/generators.hpp"
#include "ext/rayleigh.hpp"
#include "sim/channel_adapter.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace fcr::fabric {
namespace {

/// Shortest exact round-trip formatting for doubles (%.17g parses back to
/// the identical bit pattern; shorter forms are preferred when exact).
std::string fmt_double(double v) {
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lg", &back);
    if (back == v) break;
  }
  return buf;
}

[[noreturn]] void bad_spec(const std::string& why) {
  throw Error(ErrorCategory::kConfig, "sweep spec: " + why);
}

std::uint64_t parse_u64(const std::string& key, const std::string& val) {
  if (val.empty()) bad_spec("empty value for '" + key + "'");
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t n = 0;
  for (const char c : val) {
    if (c < '0' || c > '9') bad_spec("non-numeric value for '" + key + "'");
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (n > (kMax - digit) / 10) {
      bad_spec("value out of range for '" + key + "'");
    }
    n = n * 10 + digit;
  }
  return n;
}

double parse_f64(const std::string& key, const std::string& val) {
  if (val.empty()) bad_spec("empty value for '" + key + "'");
  double v = 0.0;
  int consumed = 0;
  if (std::sscanf(val.c_str(), "%lg%n", &v, &consumed) != 1 ||
      static_cast<std::size_t>(consumed) != val.size()) {
    bad_spec("malformed number for '" + key + "'");
  }
  return v;
}

void validate(const SweepSpec& s) {
  const auto one_of = [](const std::string& v,
                         std::initializer_list<const char*> allowed) {
    for (const char* a : allowed) {
      if (v == a) return true;
    }
    return false;
  };
  if (!one_of(s.deployment, {"uniform", "disk", "clusters", "chain", "ring",
                             "multi-scale"})) {
    bad_spec("unknown deployment kind: " + s.deployment);
  }
  if (!one_of(s.channel, {"sinr", "rayleigh", "radio", "radio-cd"})) {
    bad_spec("unknown channel kind: " + s.channel);
  }
  if (s.n == 0) bad_spec("n must be positive");
  if (s.trials == 0) bad_spec("trials must be positive");
  if (s.max_attempts == 0) bad_spec("max_attempts must be positive");
}

}  // namespace

std::string SweepSpec::identity() const {
  std::ostringstream id;
  id << "deployment=" << deployment << ";n=" << n
     << ";side=" << fmt_double(side) << ";clusters=" << clusters
     << ";span=" << fmt_double(span) << ";levels=" << levels
     << ";channel=" << channel << ";alpha=" << fmt_double(alpha)
     << ";beta=" << fmt_double(beta) << ";noise=" << fmt_double(noise)
     << ";fading_severity=" << fmt_double(fading_severity)
     << ";algorithm=" << algorithm << ";p=" << fmt_double(p);
  return id.str();
}

std::string serialize_spec(const SweepSpec& s) {
  std::ostringstream os;
  os << s.identity() << ";trials=" << s.trials << ";seed=" << s.seed
     << ";max_rounds=" << s.max_rounds << ";round_budget=" << s.round_budget
     << ";max_attempts=" << s.max_attempts;
  return os.str();
}

SweepSpec parse_spec(const std::string& text) {
  SweepSpec s;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t end = text.find(';', at);
    if (end == std::string::npos) end = text.size();
    const std::string kv = text.substr(at, end - at);
    at = end + 1;
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      bad_spec("malformed entry '" + kv + "'");
    }
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    if (key == "deployment") {
      s.deployment = val;
    } else if (key == "n") {
      s.n = static_cast<std::size_t>(parse_u64(key, val));
    } else if (key == "side") {
      s.side = parse_f64(key, val);
    } else if (key == "clusters") {
      s.clusters = static_cast<std::size_t>(parse_u64(key, val));
    } else if (key == "span") {
      s.span = parse_f64(key, val);
    } else if (key == "levels") {
      s.levels = static_cast<std::size_t>(parse_u64(key, val));
    } else if (key == "channel") {
      s.channel = val;
    } else if (key == "alpha") {
      s.alpha = parse_f64(key, val);
    } else if (key == "beta") {
      s.beta = parse_f64(key, val);
    } else if (key == "noise") {
      s.noise = parse_f64(key, val);
    } else if (key == "fading_severity") {
      s.fading_severity = parse_f64(key, val);
    } else if (key == "algorithm") {
      s.algorithm = val;
    } else if (key == "p") {
      s.p = parse_f64(key, val);
    } else if (key == "trials") {
      s.trials = static_cast<std::size_t>(parse_u64(key, val));
    } else if (key == "seed") {
      s.seed = parse_u64(key, val);
    } else if (key == "max_rounds") {
      s.max_rounds = parse_u64(key, val);
    } else if (key == "round_budget") {
      s.round_budget = parse_u64(key, val);
    } else if (key == "max_attempts") {
      s.max_attempts = static_cast<std::size_t>(parse_u64(key, val));
    } else {
      bad_spec("unknown key '" + key + "' (coordinator/worker version skew?)");
    }
  }
  validate(s);
  return s;
}

Factories make_factories(const SweepSpec& spec) {
  validate(spec);
  Factories f;

  const std::size_t n = spec.n;
  const double side = spec.side > 0.0
                          ? spec.side
                          : 2.0 * std::sqrt(static_cast<double>(n));
  if (spec.deployment == "uniform") {
    f.deploy = [n, side](Rng& rng) {
      return uniform_square(n, side, rng).normalized();
    };
  } else if (spec.deployment == "disk") {
    f.deploy = [n, side](Rng& rng) {
      return uniform_disk(n, side / 2.0, rng).normalized();
    };
  } else if (spec.deployment == "clusters") {
    const std::size_t clusters = spec.clusters;
    f.deploy = [n, clusters, side](Rng& rng) {
      return thomas_clusters(n, clusters, side / 40.0, side, rng).normalized();
    };
  } else if (spec.deployment == "chain") {
    const double span = spec.span;
    f.deploy = [n, span](Rng& rng) {
      return exponential_chain(n, span, rng).normalized();
    };
  } else if (spec.deployment == "ring") {
    f.deploy = [n, side](Rng& rng) {
      return ring(n, side, 0.001, rng).normalized();
    };
  } else {  // multi-scale (validate() already rejected anything else)
    const std::size_t levels = spec.levels;
    f.deploy = [levels, n](Rng& rng) {
      return multi_scale(levels, std::max<std::size_t>(2, n / levels), rng)
          .normalized();
    };
  }

  const double alpha = spec.alpha;
  const double beta = spec.beta;
  const double noise = spec.noise;
  if (spec.channel == "sinr") {
    f.channel = sinr_channel_factory(alpha, beta, noise);
  } else if (spec.channel == "rayleigh") {
    const double severity = spec.fading_severity;
    const std::uint64_t seed = spec.seed;
    f.channel = [=](const Deployment& dep) -> std::unique_ptr<ChannelAdapter> {
      const SinrParams params =
          SinrParams::for_longest_link(alpha, beta, noise, dep.max_link());
      return std::make_unique<RayleighSinrAdapter>(params, severity,
                                                   Rng(seed ^ 0xFADEDFADEULL));
    };
  } else if (spec.channel == "radio") {
    f.channel = radio_channel_factory(false);
  } else {  // radio-cd
    f.channel = radio_channel_factory(true);
  }

  const std::string algo_key = spec.algorithm;
  const double p = spec.p;
  f.algorithm = [algo_key, p](const Deployment& dep) {
    return make_algorithm(algo_key, dep.size(), p);
  };
  return f;
}

CampaignConfig campaign_config(const SweepSpec& spec) {
  CampaignConfig cc;
  cc.trial.trials = spec.trials;
  cc.trial.seed = spec.seed;
  cc.trial.engine.max_rounds = spec.max_rounds;
  cc.threads = 1;
  cc.retry.max_attempts = spec.max_attempts;
  cc.watchdog.round_budget = spec.round_budget;
  cc.identity = spec.identity();
  return cc;
}

void add_spec_flags(CliParser& cli) {
  cli.add_flag("deployment", "uniform",
               "uniform | disk | clusters | chain | ring | multi-scale");
  cli.add_flag("n", "128", "number of nodes");
  cli.add_flag("side", "0", "region side (0: auto 2*sqrt(n))");
  cli.add_flag("clusters", "8", "cluster count (clusters deployment)");
  cli.add_flag("span", "16384", "link ratio R (chain deployment)");
  cli.add_flag("levels", "8", "link classes (multi-scale deployment)");
  cli.add_flag("channel", "sinr", "sinr | rayleigh | radio | radio-cd");
  cli.add_flag("alpha", "3.0", "path-loss exponent");
  cli.add_flag("beta", "1.5", "SINR decoding threshold");
  cli.add_flag("noise", "1e-9", "ambient noise");
  cli.add_flag("fading-severity", "1.0", "Rayleigh severity (rayleigh channel)");
  std::string algorithms;
  for (const AlgorithmSpec& a : algorithm_catalog()) {
    algorithms += (algorithms.empty() ? "registry key: " : " | ") + a.key;
  }
  cli.add_flag("algorithm", "fading", algorithms);
  cli.add_flag("p", "0.2", "broadcast probability (constant-p algorithms)");
  cli.add_flag("trials", "100", "number of independent trials");
  cli.add_flag("seed", "20160725", "master seed");
  cli.add_flag("max-rounds", "1000000", "per-trial round budget");
  cli.add_flag("retries", "3",
               "campaign mode: attempts per trial before quarantine");
  cli.add_flag("round-budget", "0",
               "campaign watchdog: per-trial round budget (0 = off)");
}

SweepSpec spec_from_cli(const CliParser& cli) {
  SweepSpec s;
  s.deployment = cli.get_string("deployment");
  s.n = static_cast<std::size_t>(cli.get_uint("n"));
  s.side = cli.get_double("side");
  s.clusters = static_cast<std::size_t>(cli.get_uint("clusters"));
  s.span = cli.get_double("span");
  s.levels = static_cast<std::size_t>(cli.get_uint("levels"));
  s.channel = cli.get_string("channel");
  s.alpha = cli.get_double("alpha");
  s.beta = cli.get_double("beta");
  s.noise = cli.get_double("noise");
  s.fading_severity = cli.get_double("fading-severity");
  s.algorithm = cli.get_string("algorithm");
  s.p = cli.get_double("p");
  s.trials = static_cast<std::size_t>(cli.get_uint("trials"));
  s.seed = cli.get_uint("seed");
  s.max_rounds = cli.get_uint("max-rounds");
  s.round_budget = cli.get_uint("round-budget");
  s.max_attempts = static_cast<std::size_t>(cli.get_uint("retries"));
  validate(s);
  return s;
}

}  // namespace fcr::fabric
