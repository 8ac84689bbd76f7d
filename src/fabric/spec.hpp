// The sweep specification: a campaign definition that travels.
//
// The fabric's coordinator and workers are separate processes, so the
// (deployment, channel, algorithm, trial) composition that fcrsim built
// from CLI flags must be expressible as DATA. SweepSpec is that data: a
// flat value struct covering every generative composition fcrsim offers,
// with a canonical key=value serialization for the wire. A worker that
// parses a spec and builds its factories computes bit-identically to the
// coordinator building the same spec locally — both go through the one
// make_factories() below.
//
// File-based deployments deliberately do not travel (the worker has no
// access to the coordinator's filesystem); fcrsim rejects --fabric-socket
// together with --deployment-file.
#pragma once

#include <cstdint>
#include <string>

#include "sim/campaign.hpp"
#include "sim/runner.hpp"
#include "util/cli.hpp"

namespace fcr::fabric {

/// Everything that determines what a campaign computes. Field names and
/// defaults mirror fcrsim's flags; the identity string and the campaign
/// config hash derive from these fields only, so a spec round-tripped
/// through serialize/parse drives the exact same trials.
struct SweepSpec {
  std::string deployment = "uniform";  ///< uniform|disk|clusters|chain|ring|multi-scale
  std::size_t n = 128;
  double side = 0.0;  ///< 0 = auto 2*sqrt(n)
  std::size_t clusters = 8;
  double span = 16384.0;
  std::size_t levels = 8;

  std::string channel = "sinr";  ///< sinr|rayleigh|radio|radio-cd
  double alpha = 3.0;
  double beta = 1.5;
  double noise = 1e-9;
  double fading_severity = 1.0;

  std::string algorithm = "fading";
  double p = 0.2;

  std::size_t trials = 100;
  std::uint64_t seed = 20160725;
  std::uint64_t max_rounds = 1000000;
  std::uint64_t round_budget = 0;  ///< campaign watchdog (0 = off)
  std::size_t max_attempts = 3;    ///< retry budget per trial

  /// The campaign identity string folded into the config hash, so a
  /// checkpoint cannot resume a different sweep: every serialized field
  /// except the ones the hash folds on its own (trials, seed, max_rounds,
  /// round_budget) and max_attempts, which a resume may change. It is the
  /// leading part of serialize_spec()'s text.
  std::string identity() const;
};

/// Canonical key=value;... form (stable key order, shortest round-trip
/// float formatting). parse(serialize(s)) == s for any valid spec.
std::string serialize_spec(const SweepSpec& spec);

/// Parses serialize_spec() output. Throws fcr::Error(kConfig) on unknown
/// keys, malformed values, or out-of-range fields — a coordinator/worker
/// version skew fails loudly instead of computing the wrong sweep.
SweepSpec parse_spec(const std::string& text);

/// The factory triple for a spec. Both sides of the wire call this, so
/// a leased trial executes byte-for-byte the same path everywhere.
struct Factories {
  DeploymentFactory deploy;
  ChannelFactory channel;
  AlgorithmFactory algorithm;
};
Factories make_factories(const SweepSpec& spec);

/// The CampaignConfig a spec implies (threads=1, no checkpoint — callers
/// layer their own execution/checkpoint policy on top). Its
/// campaign_config_hash is THE config hash exchanged on the wire.
CampaignConfig campaign_config(const SweepSpec& spec);

/// Registers the spec's flags on a CliParser (shared by fcrsim and fcrd
/// so the two front-ends cannot drift) / reads them back into a spec.
void add_spec_flags(CliParser& cli);
SweepSpec spec_from_cli(const CliParser& cli);

}  // namespace fcr::fabric
