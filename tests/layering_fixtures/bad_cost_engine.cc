// Layering-linter fixture (never compiled): the cost model reading the
// engine's timing structs directly. The calibrator takes (predicted,
// actual) pairs that the service layer builds from the engine's
// measurements; the linter must reject the back-edge.
// pretend: src/cost/calibration_updater.cc
// expect: cost-engine
#include "exec/sharded_engine.h"
