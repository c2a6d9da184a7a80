//! Warns when maps-tensor is built without hardware FMA: its spectral
//! convolution kernels are written against `f64::mul_add`, which is then a
//! slow libm call. The repository's `.cargo/config.toml` sets
//! `target-cpu=native`, but Cargo reads it only for builds started inside
//! the repository.

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let arch = std::env::var("CARGO_CFG_TARGET_ARCH").unwrap_or_default();
    let features = std::env::var("CARGO_CFG_TARGET_FEATURE").unwrap_or_default();
    if matches!(arch.as_str(), "x86" | "x86_64") && !features.split(',').any(|f| f == "fma") {
        println!(
            "cargo:warning=maps-tensor is built without hardware FMA, so f64::mul_add is a slow \
             libm call; build with RUSTFLAGS=\"-C target-cpu=native\""
        );
    }
}
