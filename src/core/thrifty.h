// Umbrella header: the Thrifty public API that the examples and perfbench
// program against. Everything else in the tree includes the headers it
// uses directly, so `#include "<module>.h"` lists a module's users.
//
// Typical flow (see examples/quickstart.cpp):
//   1. Generate or collect tenant logs        (workload/)
//   2. DeploymentAdvisor::Advise              (core/deployment_advisor.h)
//   3. Size a Cluster, ThriftyService::Deploy (core/service.h)
//   4. Submit queries / replay logs           (core/service.h)
//   5. Watch RT-TTP + elastic scaling         (scaling/)

#ifndef THRIFTY_CORE_THRIFTY_H_
#define THRIFTY_CORE_THRIFTY_H_

#include "activity/activity_vector.h"
#include "activity/epoch.h"
#include "common/histogram.h"
#include "common/interval.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "core/admin_report.h"
#include "core/deployment_advisor.h"
#include "core/deployment_master.h"
#include "core/service.h"
#include "mppdb/catalog.h"
#include "mppdb/cluster.h"
#include "mppdb/instance.h"
#include "mppdb/query_model.h"
#include "placement/cluster_design.h"
#include "placement/deployment_plan.h"
#include "placement/plan_io.h"
#include "placement/problem.h"
#include "routing/query_router.h"
#include "scaling/elastic_scaler.h"
#include "scaling/manual_tuning.h"
#include "sim/engine.h"
#include "workload/log_generator.h"
#include "workload/query_log.h"
#include "workload/tenant.h"
#include "workload/tenant_population.h"

#endif  // THRIFTY_CORE_THRIFTY_H_
