#include "workload/log_generator.h"

#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "activity/activity_vector.h"
#include "workload/tenant_population.h"

namespace thrifty {
namespace {

// One shared library for the whole file: Step-1 generation is the expensive
// part and is reusable across tests.
class LogGeneratorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new QueryCatalog(QueryCatalog::Default());
    library_ = new SessionLibrary(catalog_, {2, 4}, /*sessions_per_class=*/6,
                                  Rng(101));
  }
  static void TearDownTestSuite() {
    delete library_;
    delete catalog_;
    library_ = nullptr;
    catalog_ = nullptr;
  }

  std::vector<TenantSpec> MakeTenants(int count, uint64_t seed) {
    PopulationOptions options;
    options.node_sizes = {2, 4};
    Rng rng(seed);
    auto result = GenerateTenantPopulation(count, options, &rng);
    EXPECT_TRUE(result.ok());
    return *result;
  }

  static QueryCatalog* catalog_;
  static SessionLibrary* library_;
};

QueryCatalog* LogGeneratorTest::catalog_ = nullptr;
SessionLibrary* LogGeneratorTest::library_ = nullptr;

TEST_F(LogGeneratorTest, LibraryHasAllClasses) {
  for (int nodes : {2, 4}) {
    for (QuerySuite suite : {QuerySuite::kTpch, QuerySuite::kTpcds}) {
      auto sessions = library_->SessionsFor(nodes, suite);
      ASSERT_TRUE(sessions.ok());
      EXPECT_EQ((*sessions)->size(), 6u);
    }
  }
  EXPECT_EQ(library_->SessionsFor(8, QuerySuite::kTpch).status().code(),
            StatusCode::kNotFound);
}

TEST_F(LogGeneratorTest, ComposeProducesOneLogPerTenant) {
  LogComposerOptions options;
  options.horizon_days = 7;
  LogComposer composer(library_, options);
  auto tenants = MakeTenants(10, 1);
  Rng rng(2);
  auto logs = composer.Compose(&tenants, &rng);
  ASSERT_TRUE(logs.ok());
  ASSERT_EQ(logs->size(), 10u);
  for (size_t i = 0; i < logs->size(); ++i) {
    EXPECT_EQ((*logs)[i].tenant_id, tenants[i].id);
    EXPECT_FALSE((*logs)[i].entries.empty());
  }
}

TEST_F(LogGeneratorTest, AssignsTimeZoneOffsets) {
  LogComposerOptions options;
  options.horizon_days = 7;
  LogComposer composer(library_, options);
  auto tenants = MakeTenants(40, 3);
  Rng rng(4);
  ASSERT_TRUE(composer.Compose(&tenants, &rng).ok());
  std::set<int> offsets;
  for (const auto& t : tenants) {
    offsets.insert(t.time_zone_offset_hours);
    EXPECT_TRUE(std::count(options.offset_hours.begin(),
                           options.offset_hours.end(),
                           t.time_zone_offset_hours) > 0);
  }
  EXPECT_GT(offsets.size(), 3u);  // 40 tenants hit several of the 7 zones
}

TEST_F(LogGeneratorTest, WeekendsAreQuiet) {
  LogComposerOptions options;
  options.horizon_days = 14;
  options.offset_hours = {0};  // no spill from late time zones
  options.num_holidays = 0;
  LogComposer composer(library_, options);
  auto tenants = MakeTenants(5, 5);
  Rng rng(6);
  auto logs = composer.Compose(&tenants, &rng);
  ASSERT_TRUE(logs.ok());
  for (const auto& log : *logs) {
    // Saturday of week 1 is day 5; with offset 0 all sessions start and end
    // within the working day (max session start 14h + 3h + tail).
    double weekend_ratio =
        log.ActiveRatio(5 * kDay + 12 * kHour, 6 * kDay + 12 * kHour);
    EXPECT_EQ(weekend_ratio, 0) << "tenant " << log.tenant_id;
  }
}

TEST_F(LogGeneratorTest, EntriesClippedToHorizon) {
  LogComposerOptions options;
  options.horizon_days = 3;
  LogComposer composer(library_, options);
  auto tenants = MakeTenants(10, 7);
  Rng rng(8);
  auto logs = composer.Compose(&tenants, &rng);
  ASSERT_TRUE(logs.ok());
  for (const auto& log : *logs) {
    for (const auto& e : log.entries) {
      EXPECT_LT(e.submit_time, composer.horizon_end());
    }
  }
}

TEST_F(LogGeneratorTest, DeterministicFromSeed) {
  LogComposerOptions options;
  options.horizon_days = 5;
  LogComposer composer(library_, options);
  auto t1 = MakeTenants(8, 9);
  auto t2 = MakeTenants(8, 9);
  Rng rng1(10), rng2(10);
  auto l1 = composer.Compose(&t1, &rng1);
  auto l2 = composer.Compose(&t2, &rng2);
  ASSERT_TRUE(l1.ok() && l2.ok());
  for (size_t i = 0; i < l1->size(); ++i) {
    ASSERT_EQ((*l1)[i].entries.size(), (*l2)[i].entries.size());
    for (size_t j = 0; j < (*l1)[i].entries.size(); ++j) {
      EXPECT_EQ((*l1)[i].entries[j].submit_time,
                (*l2)[i].entries[j].submit_time);
    }
  }
}

TEST_F(LogGeneratorTest, ActiveTenantRatioInCalibratedBand) {
  // The time-average active-tenant ratio of generated logs. The substrate
  // is calibrated so the *consolidation behaviour* matches the paper
  // (tenant-group sizes ~11-15 at R=3, P=99.9%), which pins the
  // time-average ratio to a few percent; the paper's quoted "8.9%-12%"
  // cannot be this time-average, since its §7.4 variants (same per-tenant
  // activity, fewer time zones) raise it — see EXPERIMENTS.md.
  LogComposerOptions options;
  options.horizon_days = 14;
  LogComposer composer(library_, options);
  auto tenants = MakeTenants(60, 11);
  Rng rng(12);
  auto logs = composer.Compose(&tenants, &rng);
  ASSERT_TRUE(logs.ok());
  double ratio =
      AverageActiveTenantRatio(*logs, 0, composer.horizon_end());
  EXPECT_GT(ratio, 0.008);
  EXPECT_LT(ratio, 0.08);
}

TEST_F(LogGeneratorTest, NoLunchAndSingleZoneRaiseActiveRatio) {
  // §7.4's modifications: same-zone tenants without lunch hour overlap
  // far more.
  auto tenants_a = MakeTenants(40, 13);
  auto tenants_b = tenants_a;

  LogComposerOptions normal;
  normal.horizon_days = 7;
  LogComposerOptions crowded = normal;
  crowded.offset_hours = {0};
  crowded.lunch_break = false;

  Rng rng_a(14), rng_b(14);
  auto logs_a = LogComposer(library_, normal).Compose(&tenants_a, &rng_a);
  auto logs_b = LogComposer(library_, crowded).Compose(&tenants_b, &rng_b);
  ASSERT_TRUE(logs_a.ok() && logs_b.ok());
  // The time-average ratio is invariant: concentrating the same per-tenant
  // activity into fewer clock hours does not change total active time.
  double avg_a = AverageActiveTenantRatio(*logs_a, 0, 7 * kDay);
  double avg_b = AverageActiveTenantRatio(*logs_b, 0, 7 * kDay);
  EXPECT_NEAR(avg_b, avg_a, avg_a * 0.3);
  // The conditional (busy-epoch) ratio is what rises — the §7.4 effect.
  const EpochConfig epochs{10 * kSecond, 0, 7 * kDay};
  auto conditional = [&](const std::vector<TenantLog>& logs) {
    std::vector<ActivityVector> vectors;
    for (const TenantLog& log : logs) {
      vectors.push_back(MakeActivityVector(log, epochs));
    }
    return ConditionalActiveTenantRatio(vectors);
  };
  double cond_a = conditional(*logs_a);
  double cond_b = conditional(*logs_b);
  EXPECT_GT(cond_b, cond_a * 1.5);
}

TEST_F(LogGeneratorTest, ComposeActivityMatchesComposedLogs) {
  // The activity-only fast path must make the same sampling decisions as
  // the full composition: per-tenant activity intervals (clipped to the
  // horizon) agree exactly.
  LogComposerOptions options;
  options.horizon_days = 6;
  LogComposer composer(library_, options);
  auto tenants_a = MakeTenants(15, 21);
  auto tenants_b = tenants_a;
  Rng rng_a(22), rng_b(22);
  auto logs = composer.Compose(&tenants_a, &rng_a);
  auto activity = composer.ComposeActivity(&tenants_b, &rng_b);
  ASSERT_TRUE(logs.ok() && activity.ok());
  ASSERT_EQ(logs->size(), activity->size());
  for (size_t i = 0; i < logs->size(); ++i) {
    EXPECT_EQ(tenants_a[i].time_zone_offset_hours,
              tenants_b[i].time_zone_offset_hours);
    IntervalSet from_logs = (*logs)[i].ActivityIntervals().Clip(
        0, composer.horizon_end());
    IntervalSet direct = (*activity)[i].Clip(0, composer.horizon_end());
    EXPECT_EQ(from_logs.intervals(), direct.intervals())
        << "tenant " << (*logs)[i].tenant_id;
  }
}

TEST_F(LogGeneratorTest, ComposeIsByteIdenticalAcrossJobCounts) {
  // Tenant-sharded composition must produce byte-identical logs: every
  // tenant samples from its own id-keyed Rng stream, so the worker count
  // can only change scheduling, never content. Compare the serialized CSV.
  LogComposerOptions serial_options;
  serial_options.horizon_days = 6;
  LogComposer serial_composer(library_, serial_options);
  auto tenants_base = MakeTenants(20, 31);
  auto tenants_serial = tenants_base;
  Rng rng_serial(32);
  auto logs_serial = serial_composer.Compose(&tenants_serial, &rng_serial);
  ASSERT_TRUE(logs_serial.ok());
  std::ostringstream serial_csv;
  ASSERT_TRUE(WriteLogsCsv(*logs_serial, serial_csv).ok());

  for (int jobs : {2, 4}) {
    LogComposerOptions options = serial_options;
    options.jobs = jobs;
    LogComposer composer(library_, options);
    auto tenants = tenants_base;
    Rng rng(32);
    auto logs = composer.Compose(&tenants, &rng);
    ASSERT_TRUE(logs.ok()) << "jobs=" << jobs;
    std::ostringstream csv;
    ASSERT_TRUE(WriteLogsCsv(*logs, csv).ok());
    EXPECT_EQ(csv.str(), serial_csv.str()) << "jobs=" << jobs;
    for (size_t i = 0; i < tenants.size(); ++i) {
      EXPECT_EQ(tenants[i].time_zone_offset_hours,
                tenants_serial[i].time_zone_offset_hours);
    }
  }
}

TEST_F(LogGeneratorTest, ComposeActivityIdenticalAcrossJobCounts) {
  LogComposerOptions serial_options;
  serial_options.horizon_days = 6;
  LogComposer serial_composer(library_, serial_options);
  auto tenants_base = MakeTenants(20, 33);
  auto tenants_serial = tenants_base;
  Rng rng_serial(34);
  auto activity_serial =
      serial_composer.ComposeActivity(&tenants_serial, &rng_serial);
  ASSERT_TRUE(activity_serial.ok());

  for (int jobs : {2, 4}) {
    LogComposerOptions options = serial_options;
    options.jobs = jobs;
    LogComposer composer(library_, options);
    auto tenants = tenants_base;
    Rng rng(34);
    auto activity = composer.ComposeActivity(&tenants, &rng);
    ASSERT_TRUE(activity.ok()) << "jobs=" << jobs;
    ASSERT_EQ(activity->size(), activity_serial->size());
    for (size_t i = 0; i < activity->size(); ++i) {
      EXPECT_EQ((*activity)[i].intervals(),
                (*activity_serial)[i].intervals())
          << "jobs=" << jobs << " tenant " << tenants[i].id;
    }
  }
}

TEST_F(LogGeneratorTest, ComposeActivityVectorsMatchStreamedEpochization) {
  // The streamed compose->epochize path must make the same sampling
  // decisions as ComposeActivity and produce exactly
  // EpochizeIntervals(ComposeActivity sets) — at any job count.
  LogComposerOptions options;
  options.horizon_days = 10;
  LogComposer composer(library_, options);
  EpochConfig epochs;
  epochs.epoch_size = 10 * kSecond;
  epochs.begin = 0;
  epochs.end = composer.horizon_end();

  auto tenants = MakeTenants(12, 77);
  Rng rng(78);
  auto sets = composer.ComposeActivity(&tenants, &rng);
  ASSERT_TRUE(sets.ok());

  for (int jobs : {1, 3}) {
    LogComposerOptions jobbed = options;
    jobbed.jobs = jobs;
    LogComposer streamed_composer(library_, jobbed);
    auto streamed_tenants = MakeTenants(12, 77);
    Rng streamed_rng(78);
    auto vectors = streamed_composer.ComposeActivityVectors(
        &streamed_tenants, &streamed_rng, epochs);
    ASSERT_TRUE(vectors.ok()) << "jobs=" << jobs;
    ASSERT_EQ(vectors->size(), sets->size());
    for (size_t i = 0; i < vectors->size(); ++i) {
      EXPECT_EQ(streamed_tenants[i].time_zone_offset_hours,
                tenants[i].time_zone_offset_hours)
          << "jobs=" << jobs << " tenant " << tenants[i].id;
      ActivityVector expected =
          EpochizeIntervals(tenants[i].id, (*sets)[i], epochs);
      EXPECT_EQ((*vectors)[i].word_indices(), expected.word_indices())
          << "jobs=" << jobs << " tenant " << tenants[i].id;
      EXPECT_EQ((*vectors)[i].word_bits(), expected.word_bits())
          << "jobs=" << jobs << " tenant " << tenants[i].id;
      EXPECT_EQ((*vectors)[i].num_epochs(), expected.num_epochs())
          << "jobs=" << jobs << " tenant " << tenants[i].id;
    }
  }

  // An epoch grid that does not cover the horizon is rejected.
  EpochConfig short_grid = epochs;
  short_grid.end = composer.horizon_end() - kDay;
  auto rejected_tenants = MakeTenants(2, 79);
  Rng rejected_rng(80);
  EXPECT_EQ(composer
                .ComposeActivityVectors(&rejected_tenants, &rejected_rng,
                                        short_grid)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LogGeneratorTest, RejectsBadOptions) {
  LogComposerOptions options;
  options.offset_hours.clear();
  LogComposer composer(library_, options);
  auto tenants = MakeTenants(2, 15);
  Rng rng(16);
  EXPECT_EQ(composer.Compose(&tenants, &rng).status().code(),
            StatusCode::kInvalidArgument);

  LogComposerOptions zero_days;
  zero_days.horizon_days = 0;
  LogComposer composer2(library_, zero_days);
  EXPECT_EQ(composer2.Compose(&tenants, &rng).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace thrifty
