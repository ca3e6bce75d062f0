// Extension — effect of the packet type (DH1/3/5, DM1/3/5) on throughput
// in the presence of noise.
//
// The paper lists this trade-off as one of the analyses its model was
// built for (Section 2): unprotected DH packets maximise goodput on a
// clean channel, while FEC-protected DM packets win once the BER rises;
// longer packets amplify both effects. The full type x BER matrix is one
// sweep, so every cell spreads across the thread pool at once.
//
// Thin wrapper over the "throughput" scenario; `btsc-sweep --scenario
// throughput` runs the same sweep with the same flags.
#include "runner/scenarios.hpp"

int main(int argc, char** argv) {
  return btsc::runner::run_scenario_main("throughput", argc, argv);
}
