//! Regenerates Fig13 of the paper's empirical study (see `ncg_lab::figures`).
fn main() {
    ncg_bench::regenerate(ncg_lab::figures::fig13(), ncg_bench::Scale::from_env());
}
