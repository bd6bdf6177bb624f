//! One experiment per table/figure of the paper's evaluation.
//!
//! Every function prints the rows/series the paper reports, followed by a
//! `paper:` line quoting the claim and a `measured:` line with this
//! reproduction's numbers, and returns a result struct for programmatic
//! checks. The `experiments` binary runs each on the full Table II suite;
//! `golden/experiments.txt` pins its output and EXPERIMENTS.md quotes it.

mod ablations;
mod compare_figs;
mod kernel_figs;
mod msid_figs;
mod summary;
mod tables;

pub use ablations::{
    ablation_init_unroll, ablation_msid, ablation_overlap, ablation_reorder, ablation_tolerance,
    AblationInitResult, AblationMsidResult, AblationOverlapResult, AblationReorderResult,
    AblationToleranceResult,
};
pub use compare_figs::{
    fig06, fig07, fig08, fig09, fig10, fig13, sweep, Fig10Result, Fig13Result, Fig6Result,
    Fig7Result, Fig8Result, Fig9Result,
};
pub use kernel_figs::{fig01, fig02, Fig1Result, Fig1Row, Fig2Result};
pub use msid_figs::{fig05, fig11, fig12, Fig11Result, Fig12Result, Fig5Result};
pub use summary::{summary, SummaryResult};
pub use tables::{table1, table2, Table1Result, Table2Result, Table2Row};
