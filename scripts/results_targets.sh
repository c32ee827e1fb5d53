# shellcheck shell=bash
# The deterministic figure, table and extension binaries whose stdout is
# committed as results/<target>.txt. Sourced by reproduce_all.sh (which
# regenerates them) and check_results.sh (which compares against them).
targets=(
  figure01 figure02 figure03 figure04 figure05 figure06 figure07 table1
  figure08 figure09 figure10 figure11 figure12 figure13 figure14 figure15
  figure16 figure17 figure18 figure19 figure20
  ablations sensitivity robustness policy_space
  ext_suspend_resume ext_carbon_tax ext_checkpointing ext_overheads
  ext_spatial ext_price ext_capacity_cap ext_multiqueue
)
