# CTest script: `run --print-config` prints the configuration `run` executes,
# unscaled, so `campaign` on that document writes the same CSV bytes as
# `run` — here under FINSER_MC_SCALE=0.5, which both apply exactly once.
#
# Inputs: -DFINSER_CLI=<path to binary> -DWORK_DIR=<scratch dir>

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/tiny.ini"
  "array.rows = 2\narray.cols = 2\ncell.vdds = 0.8\nmc.pv_samples = 10\n"
  "mc.strikes = 1000\nmc.seed = 11\nspecies = alpha, proton\n"
  "output.dir = ${WORK_DIR}/run\n")

function(cli)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env FINSER_MC_SCALE=0.5
            --unset=FINSER_CI_TARGET --unset=FINSER_CLUSTER
            "${FINSER_CLI}" ${ARGN} --threads 2
    OUTPUT_VARIABLE stdout RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "finser_cli ${ARGN} failed with exit code ${rc}")
  endif()
  set(stdout "${stdout}" PARENT_SCOPE)
endfunction()

cli(run "${WORK_DIR}/tiny.ini" --print-config)
set(doc "${stdout}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env --unset=FINSER_MC_SCALE
          "${FINSER_CLI}" run "${WORK_DIR}/tiny.ini" --print-config --threads 2
  OUTPUT_VARIABLE unscaled)
if(NOT doc STREQUAL unscaled)
  message(FATAL_ERROR "--print-config depends on FINSER_MC_SCALE:\n"
                      "${doc}\n--- without ---\n${unscaled}")
endif()

cli(run "${WORK_DIR}/tiny.ini")
# A store of its own, so the campaign recomputes instead of replaying run's.
string(JSON doc SET "${doc}" output_dir "\"${WORK_DIR}/campaign\"")
string(JSON doc SET "${doc}" artifact_dir "\"${WORK_DIR}/campaign_store\"")
file(WRITE "${WORK_DIR}/campaign.json" "${doc}")
cli(campaign "${WORK_DIR}/campaign.json")

foreach(f pof_alpha.csv pof_proton.csv fit_summary.csv)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/run/${f}" "${WORK_DIR}/campaign/run/${f}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${f}: run and campaign on its --print-config "
                        "document differ under FINSER_MC_SCALE=0.5")
  endif()
endforeach()
