//! Regenerates Fig08 of the paper's empirical study (see `ncg_lab::figures`).
fn main() {
    ncg_bench::regenerate(ncg_lab::figures::fig08(), ncg_bench::Scale::from_env());
}
