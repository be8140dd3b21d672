/**
 * @file
 * Experiment E9b — predictor choice vs degree of DEE (Section 5.1:
 * "There is a tradeoff between predictor accuracy and its cost versus
 * degree of DEE realization and its cost, for the same performance.
 * The data suggest that some use of DEE is likely to be beneficial,
 * regardless of the predictor accuracy.")
 *
 * For each predictor, compares SP-CD-MF vs DEE-CD-MF at E_T = 100:
 * the DEE benefit should persist for every realizable predictor.
 */

#include <climits>
#include <cstdio>

#include "bench_util.hh"
#include "common/cli.hh"

int
main(int argc, char **argv)
{
    dee::Cli cli("Predictor choice vs DEE benefit (E_T = 100)");
    cli.flag("scale", "4", "workload scale factor");
    dee::runner::declareFlags(cli);
    dee::obs::declareFlags(cli);
    cli.parse(argc, argv);
    dee::obs::Session session("ablation_predictor", cli);
    const dee::runner::SweepOptions sweep = dee::runner::fromCli(cli);
    const auto suite = dee::bench::makeSuiteParallel(
        static_cast<int>(cli.integer("scale", 1, INT_MAX)), sweep);

    dee::obs::Json &out = (session.manifest().results()["predictors"] =
                               dee::obs::Json::object());
    dee::Table table({"predictor", "mean accuracy", "SP-CD-MF",
                      "DEE-CD-MF", "DEE benefit"});
    const std::vector<const char *> names{
        "taken", "btfnt",  "1bit",       "2bit",
        "pap",   "gshare", "tournament", "oracle"};
    // One cell per (predictor, benchmark): the accuracy measurement
    // and both sims share the instance, predictor-major like the
    // serial loops.
    struct CellOut
    {
        double acc = 0.0, sp = 0.0, dee = 0.0;
    };
    std::vector<CellOut> cells(names.size() * suite.size());
    dee::runner::runCells(cells.size(), sweep, [&](std::size_t c) {
        const char *name = names[c / suite.size()];
        const auto &inst = suite[c % suite.size()];
        CellOut &res = cells[c];
        auto meter = dee::makePredictor(name, inst.trace.numStatic);
        res.acc = dee::measureAccuracy(inst.trace, *meter).accuracy;
        for (bool use_dee : {false, true}) {
            auto pred = dee::makePredictor(name, inst.trace.numStatic);
            const dee::SimResult r = dee::runModel(
                use_dee ? dee::ModelKind::DEE_CD_MF
                        : dee::ModelKind::SP_CD_MF,
                inst.trace, &inst.cfg, *pred, 100);
            (use_dee ? res.dee : res.sp) = r.speedup;
        }
    });
    for (std::size_t ni = 0; ni < names.size(); ++ni) {
        const char *name = names[ni];
        std::vector<double> accs, sp, dee;
        for (std::size_t i = 0; i < suite.size(); ++i) {
            const CellOut &res = cells[ni * suite.size() + i];
            accs.push_back(res.acc);
            sp.push_back(res.sp);
            dee.push_back(res.dee);
        }
        const double sp_hm = dee::harmonicMean(sp);
        const double dee_hm = dee::harmonicMean(dee);
        dee::obs::Json entry = dee::obs::Json::object();
        entry["accuracy"] = dee::obs::Json(dee::arithmeticMean(accs));
        entry["sp_cd_mf_speedup"] = dee::obs::Json(sp_hm);
        entry["dee_cd_mf_speedup"] = dee::obs::Json(dee_hm);
        entry["dee_benefit"] = dee::obs::Json(dee_hm / sp_hm);
        out[name] = std::move(entry);
        table.addRow({name,
                      dee::Table::fmt(dee::arithmeticMean(accs), 4),
                      dee::Table::fmt(sp_hm, 2),
                      dee::Table::fmt(dee_hm, 2),
                      dee::Table::fmt(dee_hm / sp_hm, 2) + "x"});
    }
    std::printf("%s\nexpected: DEE-CD-MF >= SP-CD-MF for every "
                "predictor; the benefit shrinks as accuracy "
                "approaches 1 (DEE degenerates to SP).\n",
                table.render().c_str());
    return 0;
}
