#include "src/circuit/characterize.hpp"

#include <gtest/gtest.h>

#include <iterator>

namespace lore::circuit {
namespace {

class CharacterizeTest : public ::testing::Test {
 protected:
  CharacterizeTest()
      : lib_(make_skeleton_library("tech")),
        characterizer_(CharacterizerConfig{.slew_axis_ps = {10.0, 40.0, 160.0},
                                           .load_axis_ff = {1.0, 4.0, 16.0},
                                           .timestep_ps = 0.1},
                       device::SelfHeatingModel{}) {}

  CellLibrary lib_;
  Characterizer characterizer_;
  device::OperatingPoint op_{};
};

TEST_F(CharacterizeTest, TransientDelayPositiveAndMonotoneInLoad) {
  const auto& inv = lib_.cell(*lib_.find("INV_X1"));
  const auto light = characterizer_.simulate(inv, false, 20.0, 1.0, op_);
  const auto heavy = characterizer_.simulate(inv, false, 20.0, 16.0, op_);
  EXPECT_GT(light.delay_ps, 0.0);
  EXPECT_GT(heavy.delay_ps, light.delay_ps);
  EXPECT_GT(heavy.out_slew_ps, light.out_slew_ps);
}

TEST_F(CharacterizeTest, StrongerDriveIsFaster) {
  const auto& x1 = lib_.cell(*lib_.find("INV_X1"));
  const auto& x4 = lib_.cell(*lib_.find("INV_X4"));
  const auto t1 = characterizer_.simulate(x1, false, 20.0, 8.0, op_);
  const auto t4 = characterizer_.simulate(x4, false, 20.0, 8.0, op_);
  EXPECT_LT(t4.delay_ps, t1.delay_ps);
}

TEST_F(CharacterizeTest, HotterIsSlower) {
  const auto& nand = lib_.cell(*lib_.find("NAND2_X1"));
  device::OperatingPoint hot = op_;
  hot.temperature = 400.0;
  const auto cool_t = characterizer_.simulate(nand, false, 20.0, 4.0, op_);
  const auto hot_t = characterizer_.simulate(nand, false, 20.0, 4.0, hot);
  EXPECT_GT(hot_t.delay_ps, cool_t.delay_ps);
}

TEST_F(CharacterizeTest, AgedIsSlower) {
  const auto& nand = lib_.cell(*lib_.find("NAND2_X1"));
  device::OperatingPoint aged = op_;
  aged.delta_vth = 0.06;
  EXPECT_GT(characterizer_.simulate(nand, false, 20.0, 4.0, aged).delay_ps,
            characterizer_.simulate(nand, false, 20.0, 4.0, op_).delay_ps);
}

TEST_F(CharacterizeTest, CharacterizeCellFillsAllArcs) {
  Cell cell = lib_.cell(*lib_.find("NAND2_X2"));
  characterizer_.characterize_cell(cell, op_);
  ASSERT_EQ(cell.arcs.size(), 2u);
  for (const auto& arc : cell.arcs) {
    EXPECT_EQ(arc.rise_delay.slew_points(), 3u);
    EXPECT_GT(arc.rise_delay.at(0, 0), 0.0);
    EXPECT_GT(arc.fall_delay.at(2, 2), 0.0);
    EXPECT_GT(arc.rise_slew.at(1, 1), 0.0);
  }
  // Pin derating makes later pins slower.
  EXPECT_GT(cell.arcs[1].rise_delay.at(1, 1), cell.arcs[0].rise_delay.at(1, 1));
  // SHE table is populated and positive.
  EXPECT_GT(cell.she_temperature.at(1, 1), 0.0);
}

TEST_F(CharacterizeTest, EvaluationCounterAdvances) {
  const auto before = characterizer_.evaluations();
  const auto& inv = lib_.cell(*lib_.find("INV_X1"));
  characterizer_.simulate(inv, true, 10.0, 1.0, op_);
  EXPECT_EQ(characterizer_.evaluations(), before + 1);
}

TEST_F(CharacterizeTest, SheRiseGrowsWithLoad) {
  const auto& inv = lib_.cell(*lib_.find("INV_X1"));
  EXPECT_GT(characterizer_.she_rise(inv, 20.0, 16.0, op_),
            characterizer_.she_rise(inv, 20.0, 1.0, op_));
}

// Transient-simulation results pinned bit for bit on the fixture grid (0.1 ps
// step) at fresh, hot and aged corners. `simulate` caches the saturation
// current across timesteps; a stale cache or a reordered floating-point
// expression that moves any delay or slew fails here.
TEST_F(CharacterizeTest, SimulateMatchesGoldenHexFloats) {
  struct Expected {
    double delay_ps, out_slew_ps;
  };
  static constexpr Expected kGolden[] = {
      // INV_X1, fresh: rising then falling output, slew-major.
      {0x1.b1999999999ap+3, 0x1.44ccccccccd07p+4},
      {0x1.da666666666aap+4, 0x1.a1999999999e1p+5},
      {0x1.78fffffffff9bp+6, 0x1.689999999988cp+7},
      {0x1.7000000000074p+4, 0x1.9333333333398p+4},
      {0x1.39999999999f2p+5, 0x1.af33333333265p+5},
      {0x1.9f3333333325ep+6, 0x1.6866666666512p+7},
      {0x1.64ccccccccaa4p+5, 0x1.7bffffffffe86p+5},
      {0x1.26666666664dep+6, 0x1.35333333331fep+6},
      {0x1.1c333333331e6p+7, 0x1.79ccccccccefbp+7},
      {0x1.87ffffffffffcp+3, 0x1.1e66666666695p+4},
      {0x1.a5999999999dp+4, 0x1.6d999999999fp+5},
      {0x1.4b6666666662fp+6, 0x1.3b999999998bfp+7},
      {0x1.580000000006ep+4, 0x1.71999999999f6p+4},
      {0x1.1f33333333387p+5, 0x1.7e666666665d4p+5},
      {0x1.71999999998f1p+6, 0x1.3b66666666545p+7},
      {0x1.4a66666666458p+5, 0x1.64ccccccccb6ap+5},
      {0x1.12ccccccccb58p+6, 0x1.1f9999999987bp+6},
      {0x1.0599999999863p+7, 0x1.50666666667c5p+7},
      // INV_X1, hot: rising then falling output, slew-major.
      {0x1.f1999999999bp+3, 0x1.b333333333388p+4},
      {0x1.1e0000000002ep+5, 0x1.1799999999973p+6},
      {0x1.d2999999998dbp+6, 0x1.e2fffffffff18p+7},
      {0x1.76666666666dcp+4, 0x1.05999999999cep+5},
      {0x1.5d999999999cep+5, 0x1.1eccccccccc24p+6},
      {0x1.f26666666653ep+6, 0x1.e2fffffffffe1p+7},
      {0x1.226666666648p+5, 0x1.d7ffffffffe2ap+5},
      {0x1.1d333333331b4p+6, 0x1.88ccccccccb45p+6},
      {0x1.38ccccccccb66p+7, 0x1.f566666666a52p+7},
      {0x1.be6666666667p+3, 0x1.7e666666666acp+4},
      {0x1.fa666666666b2p+4, 0x1.e99999999999ap+5},
      {0x1.99ccccccccc47p+6, 0x1.a69999999984cp+7},
      {0x1.5999999999a08p+4, 0x1.dcccccccccd44p+4},
      {0x1.3cccccccccd22p+5, 0x1.fb3333333323p+5},
      {0x1.b9999999998aap+6, 0x1.a699999999874p+7},
      {0x1.033333333316cp+5, 0x1.b8ccccccccb16p+5},
      {0x1.05ffffffffe98p+6, 0x1.6b9999999982fp+6},
      {0x1.1c333333331e6p+7, 0x1.bd6666666694p+7},
      // INV_X1, aged: rising then falling output, slew-major.
      {0x1.0d999999999aap+4, 0x1.acccccccccd24p+4},
      {0x1.3133333333366p+5, 0x1.13fffffffffdap+6},
      {0x1.ee3333333325ap+6, 0x1.dbfffffffff0cp+7},
      {0x1.a6666666666e8p+4, 0x1.e9999999999d2p+4},
      {0x1.7e6666666667ap+5, 0x1.173333333328p+6},
      {0x1.0a666666665c1p+7, 0x1.dbcccccccccacp+7},
      {0x1.a199999999734p+5, 0x1.b333333333182p+5},
      {0x1.53999999997e4p+6, 0x1.6b333333331c8p+6},
      {0x1.5733333333246p+7, 0x1.e5cccccccd10cp+7},
      {0x1.e4cccccccccep+3, 0x1.76666666666afp+4},
      {0x1.0ecccccccccf7p+5, 0x1.e266666666666p+5},
      {0x1.b233333333295p+6, 0x1.a06666666651ap+7},
      {0x1.8b333333333aep+4, 0x1.bcccccccccd3cp+4},
      {0x1.5b3333333336ap+5, 0x1.ecccccccccbb4p+5},
      {0x1.d866666666558p+6, 0x1.a066666666542p+7},
      {0x1.84cccccccca84p+5, 0x1.973333333319ep+5},
      {0x1.3dffffffffe6p+6, 0x1.4eccccccccb7ep+6},
      {0x1.39333333331cep+7, 0x1.adccccccccffdp+7},
      // NAND2_X2, fresh: rising then falling output, slew-major.
      {0x1.5400000000022p+4, 0x1.1cccccccccd0cp+5},
      {0x1.2b999999999cbp+5, 0x1.0e66666666646p+6},
      {0x1.97ccccccccc49p+6, 0x1.8733333333203p+7},
      {0x1.ecccccccccd6p+4, 0x1.34ccccccccc97p+5},
      {0x1.780000000001ap+5, 0x1.11fffffffff53p+6},
      {0x1.be66666666572p+6, 0x1.87666666664fp+7},
      {0x1.e33333333308cp+5, 0x1.f7ffffffffe0ap+5},
      {0x1.4f33333333182p+6, 0x1.6799999999832p+6},
      {0x1.2bccccccccb7p+7, 0x1.9666666666921p+7},
      {0x1.30ccccccccce6p+4, 0x1.f199999999a05p+4},
      {0x1.093333333335cp+5, 0x1.d9999999999a4p+5},
      {0x1.6699999999947p+6, 0x1.566666666656ep+7},
      {0x1.c999999999a24p+4, 0x1.13ffffffffff4p+5},
      {0x1.55999999999d6p+5, 0x1.e333333333226p+5},
      {0x1.8cccccccccc09p+6, 0x1.5666666666527p+7},
      {0x1.c2666666663ep+5, 0x1.d73333333315ep+5},
      {0x1.3933333333198p+6, 0x1.4b9999999984ep+6},
      {0x1.12ffffffffebcp+7, 0x1.69000000001dap+7},
      // NAND2_X2, hot: rising then falling output, slew-major.
      {0x1.9400000000032p+4, 0x1.7cccccccccd26p+5},
      {0x1.6b999999999dbp+5, 0x1.69fffffffff7ep+6},
      {0x1.f966666666582p+6, 0x1.05fffffffffe6p+8},
      {0x1.09999999999e8p+5, 0x1.97333333332abp+5},
      {0x1.ab3333333331ap+5, 0x1.6d99999999894p+6},
      {0x1.0c999999998f2p+7, 0x1.060000000004ap+8},
      {0x1.bb333333330b4p+5, 0x1.3cccccccccb91p+6},
      {0x1.4eccccccccb1cp+6, 0x1.ce66666666499p+6},
      {0x1.4c3333333321ap+7, 0x1.0e00000000253p+8},
      {0x1.673333333335ap+4, 0x1.4d999999999e5p+5},
      {0x1.413333333336ap+5, 0x1.3cccccccccc7ep+6},
      {0x1.bb666666665bfp+6, 0x1.ca99999999848p+7},
      {0x1.e6666666666f8p+4, 0x1.6bfffffffffaep+5},
      {0x1.80cccccccccdep+5, 0x1.41fffffffff2dp+6},
      {0x1.db33333333222p+6, 0x1.ca9999999991p+7},
      {0x1.93333333330dcp+5, 0x1.26ccccccccba7p+6},
      {0x1.34666666664dp+6, 0x1.a7ffffffffe59p+6},
      {0x1.2d333333331d5p+7, 0x1.decccccccd04ap+7},
      // NAND2_X2, aged: rising then falling output, slew-major.
      {0x1.b0ccccccccd06p+4, 0x1.780000000005ap+5},
      {0x1.83999999999e1p+5, 0x1.64ccccccccc4bp+6},
      {0x1.0b7ffffffff7fp+7, 0x1.024ccccccccabp+8},
      {0x1.25999999999efp+5, 0x1.87fffffffff61p+5},
      {0x1.cffffffffffc2p+5, 0x1.65ffffffffef2p+6},
      {0x1.1eccccccccc13p+7, 0x1.024cccccccd16p+8},
      {0x1.18666666664ecp+6, 0x1.233333333321p+6},
      {0x1.81999999997b6p+6, 0x1.aeccccccccb1ep+6},
      {0x1.6bccccccccc32p+7, 0x1.06333333335afp+8},
      {0x1.80cccccccccfap+4, 0x1.48ccccccccd19p+5},
      {0x1.560000000003cp+5, 0x1.3866666666617p+6},
      {0x1.d5ccccccccc0bp+6, 0x1.c3ccccccccb6ep+7},
      {0x1.0d999999999e9p+5, 0x1.5cccccccccc64p+5},
      {0x1.a333333333322p+5, 0x1.3a6666666658ap+6},
      {0x1.fc66666666534p+6, 0x1.c3fffffffff77p+7},
      {0x1.0599999999832p+6, 0x1.0f9999999988bp+6},
      {0x1.6933333333168p+6, 0x1.89333333331aap+6},
      {0x1.4b33333333216p+7, 0x1.cf000000003d2p+7},
      // AOI21_X4, fresh: rising then falling output, slew-major.
      {0x1.0b999999999c3p+5, 0x1.de6666666666bp+5},
      {0x1.6c666666666a8p+5, 0x1.4f333333332cap+6},
      {0x1.78333333332cfp+6, 0x1.679999999988dp+7},
      {0x1.58ccccccccd06p+5, 0x1.e7ffffffffeedp+5},
      {0x1.b999999999972p+5, 0x1.50ccccccccbd8p+6},
      {0x1.9e66666666592p+6, 0x1.67ccccccccb7ap+7},
      {0x1.3b33333333196p+6, 0x1.4dffffffffeb2p+6},
      {0x1.74ccccccccaf6p+6, 0x1.9d999999997fcp+6},
      {0x1.1bccccccccb8p+7, 0x1.790000000022ap+7},
      {0x1.dc00000000044p+4, 0x1.a333333333379p+5},
      {0x1.42ccccccccd04p+5, 0x1.259999999996p+6},
      {0x1.4a99999999963p+6, 0x1.3accccccccbf3p+7},
      {0x1.3a666666666bep+5, 0x1.affffffffff31p+5},
      {0x1.8f33333333336p+5, 0x1.27fffffffff39p+6},
      {0x1.713333333328bp+6, 0x1.3accccccccbacp+7},
      {0x1.26666666664dep+6, 0x1.3599999999864p+6},
      {0x1.5cccccccccb0ep+6, 0x1.7a666666664ecp+6},
      {0x1.05333333331fdp+7, 0x1.4f99999999af5p+7},
      // AOI21_X4, hot: rising then falling output, slew-major.
      {0x1.446666666669ep+5, 0x1.4066666666614p+6},
      {0x1.be00000000056p+5, 0x1.c133333333252p+6},
      {0x1.d1666666665a9p+6, 0x1.e1ccccccccbep+7},
      {0x1.840000000000ep+5, 0x1.45999999998c2p+6},
      {0x1.fd9999999992ep+5, 0x1.c2666666665p+6},
      {0x1.f13333333320cp+6, 0x1.e1ccccccccca9p+7},
      {0x1.36666666664cep+6, 0x1.ab33333333189p+6},
      {0x1.7c66666666488p+6, 0x1.0c3333333328p+7},
      {0x1.38333333331cap+7, 0x1.f466666666a4dp+7},
      {0x1.1ecccccccccfbp+5, 0x1.186666666663fp+6},
      {0x1.88666666666afp+5, 0x1.88ccccccccc29p+6},
      {0x1.9899999999915p+6, 0x1.a56666666651ap+7},
      {0x1.5e6666666669ap+5, 0x1.1f999999998fp+6},
      {0x1.c7fffffffffcap+5, 0x1.8b99999999872p+6},
      {0x1.b866666666578p+6, 0x1.a59999999986fp+7},
      {0x1.1d9999999981ap+6, 0x1.89333333331abp+6},
      {0x1.5f999999997d8p+6, 0x1.e86666666647fp+6},
      {0x1.1bccccccccb8p+7, 0x1.bc6666666693bp+7},
      // AOI21_X4, aged: rising then falling output, slew-major.
      {0x1.5a0000000003dp+5, 0x1.3bfffffffffacp+6},
      {0x1.da0000000004ep+5, 0x1.baccccccccbecp+6},
      {0x1.ecfffffffff28p+6, 0x1.daccccccccbd3p+7},
      {0x1.a666666666652p+5, 0x1.3dfffffffff1fp+6},
      {0x1.13333333332e9p+6, 0x1.baccccccccb5ep+6},
      {0x1.09ccccccccc28p+7, 0x1.daccccccccca8p+7},
      {0x1.6b33333333166p+6, 0x1.8c666666664dap+6},
      {0x1.ad33333333124p+6, 0x1.f7fffffffff5ep+6},
      {0x1.56ccccccccbdep+7, 0x1.e4cccccccd107p+7},
      {0x1.3200000000033p+5, 0x1.146666666664p+6},
      {0x1.a20000000004fp+5, 0x1.833333333329p+6},
      {0x1.b0fffffffff63p+6, 0x1.9f9999999984ep+7},
      {0x1.7e6666666667ap+5, 0x1.17999999998e6p+6},
      {0x1.ef333333332d6p+5, 0x1.8399999999869p+6},
      {0x1.d79999999988cp+6, 0x1.9f6666666653dp+7},
      {0x1.53ffffffffe4ap+6, 0x1.6bffffffffe94p+6},
      {0x1.913333333314p+6, 0x1.c8ccccccccb2ap+6},
      {0x1.38ccccccccb66p+7, 0x1.ac99999999cc5p+7},
  };
  const char* cells[] = {"INV_X1", "NAND2_X2", "AOI21_X4"};
  const device::OperatingPoint corners[] = {
      {.vdd = 0.8, .temperature = 300.0, .delta_vth = 0.0},    // fresh
      {.vdd = 0.8, .temperature = 400.0, .delta_vth = 0.0},    // hot
      {.vdd = 0.8, .temperature = 360.0, .delta_vth = 0.05}};  // aged
  std::size_t k = 0;
  for (const char* name : cells) {
    const auto& cell = lib_.cell(*lib_.find(name));
    for (const auto& op : corners)
      for (const bool rising : {true, false})
        for (const double slew : characterizer_.config().slew_axis_ps)
          for (const double load : characterizer_.config().load_axis_ff) {
            ASSERT_LT(k, std::size(kGolden));
            SCOPED_TRACE(::testing::Message() << name << " T=" << op.temperature << " dVth="
                                              << op.delta_vth << " rising=" << rising
                                              << " slew=" << slew << " load=" << load);
            const auto t = characterizer_.simulate(cell, rising, slew, load, op);
            EXPECT_EQ(t.delay_ps, kGolden[k].delay_ps);
            EXPECT_EQ(t.out_slew_ps, kGolden[k].out_slew_ps);
            ++k;
          }
  }
  EXPECT_EQ(k, std::size(kGolden));
}

}  // namespace
}  // namespace lore::circuit
