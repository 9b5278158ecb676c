// Umbrella header: the Thrifty public API.
//
// Typical flow (see examples/quickstart.cc):
//   1. Generate or collect tenant logs        (workload/)
//   2. DeploymentAdvisor::Advise              (core/deployment_advisor.h)
//   3. Size a Cluster, ThriftyService::Deploy (core/service.h)
//   4. Submit queries / replay logs           (core/service.h)
//   5. Watch RT-TTP + elastic scaling         (scaling/)

#ifndef THRIFTY_CORE_THRIFTY_H_
#define THRIFTY_CORE_THRIFTY_H_

#include "activity/activity_monitor.h"
#include "activity/burst_detection.h"
#include "activity/activity_vector.h"
#include "activity/epoch.h"
#include "activity/level_set.h"
#include "activity/streamed_epochizer.h"
#include "common/distributions.h"
#include "common/histogram.h"
#include "common/interval.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/admin_report.h"
#include "core/deployment_advisor.h"
#include "core/deployment_master.h"
#include "core/reconsolidation.h"
#include "core/service.h"
#include "core/tenant_activity_monitor.h"
#include "exp/sweep_runner.h"
#include "mppdb/catalog.h"
#include "mppdb/cluster.h"
#include "mppdb/instance.h"
#include "mppdb/provisioning.h"
#include "mppdb/query_model.h"
#include "placement/cluster_design.h"
#include "placement/deployment_plan.h"
#include "placement/divergent.h"
#include "placement/exact.h"
#include "placement/heterogeneous.h"
#include "placement/ffd.h"
#include "placement/plan_io.h"
#include "placement/problem.h"
#include "placement/two_step.h"
#include "routing/query_router.h"
#include "scaling/elastic_scaler.h"
#include "scaling/manual_tuning.h"
#include "scaling/overactive.h"
#include "scaling/proactive.h"
#include "scaling/rt_ttp_monitor.h"
#include "sim/engine.h"
#include "workload/log_generator.h"
#include "workload/query_log.h"
#include "workload/session.h"
#include "workload/statistics.h"
#include "workload/tenant.h"
#include "workload/tenant_population.h"

#endif  // THRIFTY_CORE_THRIFTY_H_
