// The Intel sensor walkthrough (paper Figure 4): plot per-window
// average and stddev of temperature, brush the suspicious windows,
// zoom to the raw readings, select the >100-degree tuples as D', and
// debug. The expected explanation points at the dying motes.

#include <cstdio>

#include "dbwipes/core/session.h"
#include "dbwipes/datagen/intel_generator.h"
#include "dbwipes/viz/dashboard.h"

using namespace dbwipes;  // NOLINT — example brevity

int main() {
  IntelOptions gen;
  gen.duration_days = 7;
  gen.reading_interval_minutes = 5.0;
  LabeledDataset data = GenerateIntelDataset(gen).ValueOrDie();
  std::printf("simulated %zu readings from %zu motes; injected faults:\n",
              data.table->num_rows(), gen.num_sensors);
  for (const InjectedAnomaly& a : data.anomalies) {
    std::printf("  - %s: %s (%zu rows)\n", a.note.c_str(),
                a.description.ToString().c_str(), a.rows.size());
  }

  auto db = std::make_shared<Database>();
  db->RegisterTable(data.table);
  Session session(db);

  // The paper's query: average and stddev of temperature per
  // 30-minute window.
  DBW_CHECK_OK(session.ExecuteSql(
      "SELECT avg(temp) AS avg_temp, stddev(temp) AS sd_temp "
      "FROM readings GROUP BY window"));

  Dashboard dashboard(&session);
  std::printf("\n%s", dashboard.RenderQueryForm().c_str());
  std::printf("%s\n",
              dashboard.RenderVisualization("sd_temp").ValueOrDie().c_str());

  // The paper's gesture: brush the suspiciously high standard
  // deviations (one 120-degree mote among 54 normal ones barely moves
  // the window average but blows up its stddev).
  DBW_CHECK_OK(session.SelectResultsInRange("sd_temp", 8.0, 1e9));
  std::printf("brushed %zu suspicious windows\n",
              session.selected_groups().size());

  // Zoom in (Figure 4 right panel) and highlight the hot tuples.
  Table zoomed = session.Zoom().ValueOrDie();
  std::printf("zoom shows %zu tuples; first rows:\n%s\n", zoomed.num_rows(),
              zoomed.ToString(5).c_str());
  DBW_CHECK_OK(session.SelectInputsWhere("temp > 100"));
  std::printf("selected %zu suspicious input tuples (D')\n",
              session.selected_inputs().size());

  // Error metric on the stddev aggregate (index 1): "values are too
  // high", expected = the typical stddev of the unselected windows.
  auto suggestions = session.SuggestErrorMetrics(1).ValueOrDie();
  DBW_CHECK_OK(session.SetMetric(
      suggestions[0].make(suggestions[0].default_expected), 1));

  Explanation exp = session.Debug().ValueOrDie();
  std::printf("\n%s", dashboard.RenderRankedPredicates().c_str());
  std::printf("stage timings: preprocess %.1fms, enumerate %.1fms, "
              "trees %.1fms, rank %.1fms\n",
              exp.profile.preprocess_ms, exp.profile.enumerate_ms,
              exp.profile.predicates_ms, exp.profile.rank_ms);

  // Clean and confirm the windows return to normal.
  DBW_CHECK_OK(session.ApplyPredicate(0));
  std::printf("\nafter cleaning:\n%s\n",
              dashboard.RenderVisualization("sd_temp").ValueOrDie().c_str());
  return 0;
}
