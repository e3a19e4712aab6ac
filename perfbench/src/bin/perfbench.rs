//! Timed, untraced benchmark runs (`--trace 0`) and the alternate-path
//! report (`--alt-paths`).

fn main() {
    tamp_perfbench::main(false);
}
