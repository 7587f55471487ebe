#pragma once

#include <string>

#include "exec/sharded_engine.h"
#include "optimizer/bi_objective.h"
#include "sim/simulator.h"

namespace costdb {

/// Everything needed to simulate one planned query: the bound query (kept
/// alive for its relation handles), the bi-objective plan, and the
/// ground-truth volumes the simulator executes against. Database::Prepare
/// builds one from SQL.
struct PreparedQuery {
  BoundQuery query;
  PlannedQuery planned;
  VolumeMap truth;
};

/// Simulate a prepared query on a fresh CloudEnv under `policy`; the
/// returned SimResult's dollars are exactly this query's bill.
SimResult SimulateQuery(const PreparedQuery& prepared,
                        const DistributedSimulator& simulator,
                        ResizePolicy* policy,
                        const UserConstraint& constraint,
                        CloudEnv* env = nullptr);

/// Simulator-vs-reality cross-check for the sharded backend. Until now the
/// resize policies and the bi-objective optimizer were validated only
/// against the DistributedSimulator — a *model* of execution; the
/// ShardedEngine makes the same plan runnable on real rows, so the model
/// becomes checkable: does the cost model, fed ground-truth volumes,
/// predict the same scaling direction the real engine measures, and do the
/// bytes it believes an exchange moves line up with the bytes that moved?
struct ShardedParity {
  Seconds predicted_single = 0.0;   // estimator latency, every pipeline dop 1
  Seconds predicted_sharded = 0.0;  // same at dop = workers
  Seconds measured_single = 0.0;    // caller-measured wall times
  Seconds measured_sharded = 0.0;
  double predicted_exchange_bytes = 0.0;  // model's moved bytes at `workers`
  double measured_exchange_bytes = 0.0;   // engine's ExchangeStats
  /// Serialized-transport side (all zero for in-process runs): do the link
  /// terms the estimator was calibrated with predict the serialize+transfer
  /// share the engine actually measured?
  double measured_wire_bytes = 0.0;       // serialized frame bytes
  Seconds predicted_link_seconds = 0.0;   // estimator's link-term total
  Seconds measured_link_seconds = 0.0;    // engine's link_seconds total
  double link_q_error = 1.0;  // max(pred/meas, meas/pred); 1 when either is 0
  bool scaling_direction_agrees = false;
};

/// Fill the predicted side from the prepared query's ground-truth volumes
/// and compare against the measured side (wall times + exchange stats of a
/// real ShardedEngine run at `workers`, and of a single-worker run).
ShardedParity CheckShardedParity(const PreparedQuery& prepared,
                                 const CostEstimator& estimator, int workers,
                                 Seconds measured_single,
                                 Seconds measured_sharded,
                                 const ExchangeStats& measured);

/// The same cross-check for *elastic* execution: until now the resize
/// policies were exercised only by the DistributedSimulator's clock; the
/// elastic ShardedEngine makes the same policy drive a real run, so the
/// simulator's resize predictions become checkable against a real
/// machine-time ledger — does the simulated run resize when the real one
/// does, and are the billed machine-seconds the same order of magnitude?
struct ElasticParity {
  int simulated_resizes = 0;
  Seconds simulated_machine_seconds = 0.0;
  Dollars simulated_cost = 0.0;
  size_t real_resizes = 0;
  Seconds real_machine_seconds = 0.0;  // WorkerUsage::worker_seconds
  double machine_seconds_ratio = 0.0;  // simulated / real (0 if real == 0)
  /// Both runs resized, or both held their width.
  bool resize_direction_agrees = false;
};

/// Simulate the prepared query under `policy` and compare the simulator's
/// resize behavior and machine-time bill against the worker-second ledger
/// of a real elastic ShardedEngine run (`real_usage`).
ElasticParity CheckElasticParity(const PreparedQuery& prepared,
                                 const DistributedSimulator& simulator,
                                 ResizePolicy* policy,
                                 const UserConstraint& constraint,
                                 const WorkerUsage& real_usage);

}  // namespace costdb
