/**
 * @file
 * Experiment E9d — explicitly limited processing elements (the paper's
 * future work: "In the future, explicitly limited Processing Elements
 * (PE's) ... will be studied"; its evaluation "implicitly limited the
 * number of PE's, but not explicitly", estimating fewer than 200 busy
 * PEs at 100 branch paths).
 *
 * Sweeps a per-cycle issue-width cap for the top models at E_T = 100,
 * answering: how many PEs does DEE-CD-MF actually need?
 */

#include <climits>
#include <cstdio>

#include "bench_util.hh"
#include "common/cli.hh"

int
main(int argc, char **argv)
{
    dee::Cli cli("Issue-width (PE) limit study at E_T = 100");
    cli.flag("scale", "4", "workload scale factor");
    dee::runner::declareFlags(cli);
    dee::obs::declareFlags(cli);
    cli.parse(argc, argv);
    dee::obs::Session session("ablation_pe", cli);
    const dee::runner::SweepOptions sweep = dee::runner::fromCli(cli);
    const auto suite = dee::bench::makeSuiteParallel(
        static_cast<int>(cli.integer("scale", 1, INT_MAX)), sweep);

    const std::vector<int> widths{4, 8, 16, 32, 64, 128, 0};
    std::vector<std::string> headers{"model"};
    for (int w : widths)
        headers.push_back(w == 0 ? "PE=inf" : "PE=" + std::to_string(w));
    dee::Table table(headers);

    dee::obs::Json widths_json = dee::obs::Json::array();
    for (int w : widths)
        widths_json.push(dee::obs::Json(w));
    session.manifest().results()["pe_widths"] = std::move(widths_json);
    dee::obs::Json &out = (session.manifest().results()["models"] =
                               dee::obs::Json::object());

    const std::vector<dee::ModelKind> kinds{
        dee::ModelKind::SP, dee::ModelKind::DEE,
        dee::ModelKind::SP_CD_MF, dee::ModelKind::DEE_CD_MF};
    const auto grid = dee::bench::runGrid(
        kinds.size() * widths.size(), suite, sweep,
        [&](std::size_t p, const dee::BenchmarkInstance &inst) {
            dee::ModelRunOptions options;
            options.peLimit = widths[p % widths.size()];
            return dee::bench::speedupOf(kinds[p / widths.size()], inst,
                                         100, options);
        });
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        std::vector<std::string> row{dee::modelName(kinds[k])};
        dee::obs::Json series = dee::obs::Json::array();
        for (std::size_t w = 0; w < widths.size(); ++w) {
            const double hm =
                dee::harmonicMean(grid[k * widths.size() + w]);
            series.push(dee::obs::Json(hm));
            row.push_back(dee::Table::fmt(hm, 2));
        }
        out[dee::modelName(kinds[k])] = std::move(series);
        table.addRow(std::move(row));
    }
    std::printf("%s\npaper: max busy PEs 'likely less than 200 (for "
                "100 branch paths), with the average much lower'. The "
                "PE count where each model saturates is its real "
                "hardware appetite.\n",
                table.render().c_str());
    return 0;
}
