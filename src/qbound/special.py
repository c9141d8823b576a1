"""Special-function kernels: Gaussian tail probability and scaled Mills
ratio, both from a native scaled complementary error function erfcx, the
helper h(w) = w*exp(w), and both real branches of the Lambert W function.

Everything here is pure and deterministic; array arguments are supported
elementwise wherever the operation is naturally vectorizable.
"""
from __future__ import annotations

import enum
import functools
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_SQRT2 = math.sqrt(2.0)

#: z = -1/e, where the two real Lambert branches meet (W = -1).
BRANCH_POINT = -math.exp(-1.0)


#: erfcx(z) = exp(z*z)*erfc(z) = y * P_j(t) for z >= 0, with y = 1/(1+z),
#: j = min(floor(128*y), 127) and t = 2*(128*y - j) - 1 in [-1, 1].  Row j
#: holds the coefficients c0..c6 of P_j in t, which interpolates erfcx(z)/y
#: at the Chebyshev extrema of piece j.  tools/fit_erfcx.py fits them with
#: mpmath, checks this table against the refit bit for bit and gates its
#: accuracy.
_ERFCX_PIECES = (
    (0.5663977365549299, 0.0022124233106907173, 4.25299604327008e-06, -1.747212959099474e-08,
     -1.6475476966458237e-10, -9.306776401682422e-14, 5.955179840891576e-15),
    (0.5708394527447762, 0.002229220350861971, 4.144203148639641e-06, -1.8792925138424587e-08,
     -1.6532141870758431e-10, -1.9466828647846892e-14, 6.302971542675582e-15),
    (0.575314317270333, 0.002245566357729022, 4.0274778506354415e-06, -2.011525610542316e-08,
     -1.651322348484958e-10, 5.796484005353216e-14, 6.5921589370789865e-15),
    (0.579821396335307, 0.002261429607735004, 3.902829368788366e-06, -2.1432932284917613e-08,
     -1.6415259336272727e-10, 1.3847084955134797e-13, 6.814052911220514e-15),
    (0.5843596927832205, 0.002276778489529495, 3.7703048323091622e-06, -2.273951807989616e-08,
     -1.6235593383159876e-10, 2.2119751945089788e-13, 6.96118381687531e-15),
    (0.5889281464752936, 0.0022915816582863156, 3.629990551407039e-06, -2.402840070258248e-08,
     -1.59724653567344e-10, 3.052105208608603e-13, 7.027628746538337e-15),
    (0.5935256349814884, 0.002305808194261017, 3.482012859378973e-06, -2.5292864804705063e-08,
     -1.562508159118173e-10, 3.8951513904350863e-13, 7.009284924174095e-15),
    (0.5981509745914291, 0.002319427763800166, 3.3265384916023863e-06, -2.6526171922205014e-08,
     -1.519366407653408e-10, 4.730793998560449e-13, 6.904071017445881e-15),
    (0.6028029216482137, 0.002332410780899462, 3.163774477982284e-06, -2.7721642889724884e-08,
     -1.4679475330971347e-10, 5.548591086265343e-13, 6.71204283766087e-15),
    (0.6074801742042492, 0.0023447285673367222, 2.993967536969586e-06, -2.887274122796033e-08,
     -1.4084817710950598e-10, 6.338237223986062e-13, 6.4354158351540495e-15),
    (0.6121813739942624, 0.0023563535093825945, 2.8174029714925825e-06, -2.9973155440584194e-08,
     -1.3413006890110388e-10, 7.089819246282268e-13, 6.07849338909002e-15),
    (0.6169051087166633, 0.002367259209117944, 2.634403079497278e-06, -3.101687818109714e-08,
     -1.2668320362490842e-10, 7.794057990257613e-13, 5.647506429936844e-15),
    (0.6216499146105604, 0.002377420628461781, 2.445325103738244e-06, -3.199828036143831e-08,
     -1.1855922884393024e-10, 8.44252601605947e-13, 5.1503757544753024e-15),
    (0.6264142793120513, 0.0023868142241346025, 2.2505587564939773e-06, -3.2912178465383295e-08,
     -1.0981771692795941e-10, 9.027832951418998e-13, 4.596412960023645e-15),
    (0.6311966449700154, 0.0023954180719445895, 2.0505233645586154e-06, -3.3753893587554325e-08,
     -1.0052505072163773e-10, 9.54377220782344e-13, 3.995978891076501e-15),
    (0.6359954115986058, 0.002403211978982066, 1.8456646878342242e-06, -3.451930102654017e-08,
     -9.075318350226005e-11, 9.985425174000388e-13, 3.3601197293871757e-15),
    (0.6408089406410272, 0.002410177582533659, 1.6364514708712554e-06, -3.520486959942359e-08,
     -8.057831671973342e-11, 1.0349221398310723e-12, 2.7002004451325234e-15),
    (0.6456355587170549, 0.002416298434773566, 1.4233717906499182e-06, -3.5807690195801624e-08,
     -7.007953934423516e-11, 1.063295554050134e-12, 2.027553505489205e-15),
    (0.6504735615251221, 0.0024215600725469104, 1.2069292657453428e-06, -3.632549343409216e-08,
     -5.933747084211171e-11, 1.0835763856494892e-12, 1.3531578600314697e-15),
    (0.6553212178686896, 0.00242595007182106, 9.876391918597446e-07, -3.675665660574302e-08,
     -4.843294619907916e-11, 1.095806457465412e-12, 6.873596900697411e-16),
    (0.6601767737760255, 0.0024294580866372883, 7.660246667065212e-07, -3.7100200381169577e-08,
     -3.7445776432166025e-11, 1.1001467673497663e-12, 3.9642614590051056e-17),
    (0.6650384566824353, 0.002432075872640405, 5.426127636314625e-07, -3.7355775995637385e-08,
     -2.6453612130329163e-11, 1.0968660268978757e-12, -5.815486670435081e-16),
    (0.6699044796443643, 0.0024337972954920546, 3.179308084364737e-07, -3.752364382827639e-08,
     -1.5530931181368834e-11, 1.0863274090935729e-12, -1.168930677190929e-15),
    (0.6747730455556213, 0.002434618324679674, 9.250280793619122e-08, -3.760464443076025e-08,
     -4.748165381446825e-12, 1.0689741427074269e-12, -1.7164516167670664e-15),
    (0.6796423513371809, 0.002434537013414114, -1.331539278636406e-07, -3.7600163154677145e-08,
     5.829025578295681e-12, 1.045314550951886e-12, -2.219314383469095e-15),
    (0.6845105920735625, 0.0024335534654624786, -3.5853193512850787e-07, -3.7512089571439056e-08,
     1.6140329932419798e-11, 1.0159070691486744e-12, -2.673958098532329e-15),
    (0.6893759650706113, 0.0024316697898877095, -5.83136489450005e-07, -3.7342772880700296e-08,
     2.613121162439423e-11, 9.813456987236094e-13, -3.0780050063672445e-15),
    (0.6942366738115493, 0.002428890044762784, -8.064882224342558e-07, -3.7094974468838216e-08,
     3.57531963595734e-11, 9.422462697821692e-13, -3.4301799785970788e-15),
    (0.6990909317903713, 0.0024252201709959306, -1.0281254478547838e-06, -3.677181871485902e-08,
     4.4964025523493254e-11, 8.992337978717407e-13, -3.730209767750652e-15),
    (0.7039369662039817, 0.0024206679174454925, -1.2476061899334748e-06, -3.6376743054034716e-08,
     5.372768999499774e-11, 8.529311371128496e-13, -3.978708721964646e-15),
    (0.7087730214868496, 0.0024152427585211033, -1.464509912071817e-06, -3.591344820630655e-08,
     6.201435751448493e-11, 8.039490552237401e-13, -4.177056994452161e-15),
    (0.7135973626743458, 0.002408955805464101, -1.6784389494603472e-06, -3.538584936312512e-08,
     6.980020817561318e-11, 7.528777884163454e-13, -4.327276454627061e-15),
    (0.718408278583299, 0.0024018197124773466, -1.8890196534031884e-06, -3.479802900833434e-08,
     7.706719289263913e-11, 7.002800770012161e-13, -4.431908611980352e-15),
    (0.723204084800608, 0.002393848578835627, -2.0959032588926913e-06, -3.4154191930514265e-08,
     8.380272946209288e-11, 6.466856362301371e-13, -4.493897963323893e-15),
    (0.7279831264729582, 0.0023850578480554734, -2.298766489967258e-06, -3.3458622869582705e-08,
     8.999935019436145e-11, 5.925869811808247e-13, -4.516483316883076e-15),
    (0.7327437808927896, 0.0023754642051401903, -2.4973119197138857e-06, -3.2715647132279445e-08,
     9.565431414050988e-11, 5.384364986161718e-13, -4.503098865983869e-15),
    (0.737484459877625, 0.002365085472844874, -2.691268103481074e-06, -3.1929594411496426e-08,
     1.007691957758327e-10, 4.846446416824355e-13, -4.457286100808403e-15),
    (0.7422036119416764, 0.0023539405078294487, -2.8803895050030073e-06, -3.110476595464348e-08,
     1.053494607062243e-10, 4.3157911382319647e-13, -4.382617068334748e-15),
    (0.7468997242603095, 0.002342049097487564, -3.064456235764273e-06, -3.024540514712019e-08,
     1.0940403760587947e-10, 3.7956490509369234e-13, -4.282629019370116e-15),
    (0.7515713244294376, 0.002329431858157345, -3.243273628120731e-06, -2.9355671508761065e-08,
     1.1294489423167242e-10, 3.288850459009743e-13, -4.160770112814981e-15),
    (0.7562169820232448, 0.002316110135338206, -3.4166716625017753e-06, -2.8439618043694727e-08,
     1.1598662403514483e-10, 2.797819488892757e-13, -4.02035557225466e-15),
    (0.7608353099548093, 0.0023021059064575458, -3.5845042685155593e-06, -2.750117183695695e-08,
     1.1854604864046567e-10, 2.324592181769996e-13, -3.8645334976061715e-15),
    (0.7654249656452047, 0.002287441686653289, -3.746648519021821e-06, -2.654411775375011e-08,
     1.2064184029920057e-10, 1.870838155120217e-13, -3.6962594127239595e-15),
    (0.7699846520075136, 0.0022721404379638455, -3.903003735282246e-06, -2.557208506862231e-08,
     1.222941673849748e-10, 1.437884843727073e-13, -3.5182785663514985e-15),
    (0.7745131182529034, 0.0022562254822467683, -4.053490520196125e-06, -2.4588536831135463e-08,
     1.23524365060857e-10, 1.0267434497430386e-13, -3.3331149869260226e-15),
    (0.7790091605264845, 0.002239720418081754, -4.1980497354239976e-06, -2.3596761760850947e-08,
     1.2435463244165484e-10, 6.381358504965332e-14, -3.143066310832365e-15),
    (0.7834716223811282, 0.0022226490418529323, -4.336641436933004e-06, -2.259986845673379e-08,
     1.248077568800865e-10, 2.7252182785655826e-14, -2.9502034493410103e-15),
    (0.7878993950977471, 0.002205035273149858, -4.4692437821980364e-06, -2.160078170344164e-08,
     1.2490686542457532e-10, -6.987390856301195e-15, -2.756374223590303e-15),
    (0.7922914178607753, 0.002186903084576283, -4.59585192099045e-06, -2.0602240658557047e-08,
     1.2467520301956872e-10, -3.890353320692833e-14, -2.563210172871282e-15),
    (0.7966466777977138, 0.002168276436010642, -4.716476880403982e-06, -1.9606798709840645e-08,
     1.2413593663774959e-10, -6.851296806629902e-14, -2.3721358237151155e-15),
    (0.8009642098916556, 0.002149179213322076, -4.831144453523966e-06, -1.8616824799305977e-08,
     1.233119842374578e-10, -9.584832667110205e-14, -2.1843797916024876e-15),
    (0.8052430967756731, 0.002129635171510613, -4.939894099955219e-06, -1.763450602069938e-08,
     1.2222586721798145e-10, -1.2095587009437353e-13, -2.0009871702729777e-15),
    (0.8094824684178624, 0.002109667882209525, -5.042777865296676e-06, -1.6661851308248643e-08,
     1.2089958489015303e-10, -1.4389336566206405e-13, -1.822832743250981e-15),
    (0.8136815017056829, 0.0020893006854616684, -5.13985932559453e-06, -1.5700696046835934e-08,
     1.1935450938035441e-10, -1.647281248387016e-13, -1.6506346266970028e-15),
    (0.8178394199380316, 0.0020685566456594856, -5.2312125618250306e-06, -1.4752707446643892e-08,
     1.1761129933366548e-10, -1.8353520575991642e-13, -1.4849680210104142e-15),
    (0.821955492233257, 0.0020474585115199556, -5.316921168555772e-06, -1.3819390538475302e-08,
     1.1568983076829043e-10, -2.003957800948675e-13, -1.3262788101969602e-15),
    (0.826029032861039, 0.0020260286799508734, -5.3970773001110085e-06, -1.2902094659077445e-08,
     1.1360914345117682e-10, -2.153956611244501e-13, -1.1748968026824e-15),
    (0.8300594005057622, 0.0020042891636530423, -5.471780756821299e-06, -1.2002020308686894e-08,
     1.113874012073411e-10, -2.2862398773882545e-13, -1.0310484550869638e-15),
    (0.8340459974686958, 0.0019822615622940108, -5.541138113268748e-06, -1.112022627547472e-08,
     1.0904186463709123e-10, -2.401720574098035e-13, -8.94868961754705e-16),
    (0.8379882688159482, 0.0019599670370825523, -5.605261889843225e-06, -1.0257636933483313e-08,
     1.0658887479113291e-10, -2.5013230000367054e-13, -7.66413627971681e-16),
    (0.8418857014788279, 0.001937426288568902, -5.664269768398599e-06, -9.415049631908646e-09,
     1.040438464392398e-10, -2.5859738349743163e-13, -6.456684743048757e-16),
    (0.8457378233128807, 0.0019146595374935527, -5.7182838523372015e-06, -8.593142104131379e-09,
     1.0142126966021652e-10, -2.6565944218165837e-13, -5.325600438916965e-16),
    (0.8495442021215274, 0.001891686508506914, -5.7674299710508885e-06, -7.792479834697952e-09,
     9.873471857635178e-11, -2.714094177183293e-13, -4.269644043638645e-16),
    (0.8533044446498619, 0.0018685264165831353, -5.811837028303783e-06, -7.013523331481163e-09,
     9.599686615206187e-11, -2.7593650342100165e-13, -3.2871535194813627e-16),
    (0.8570181955538276, 0.0018451979559536472, -5.851636393850294e-06, -6.256635258508533e-09,
     9.321950407205281e-11, -2.7932768229259604e-13, -2.3761183767502757e-16),
    (0.8606851363496363, 0.0018217192913893086, -5.886961337337828e-06, -5.522087392449057e-09,
     9.041356680759298e-11, -2.816673496543629e-13, -1.5342464503755213e-16),
    (0.8643049843479608, 0.0017981080516642647, -5.91794650334221e-06, -4.810067372518537e-09,
     8.758915906925265e-11, -2.830370115952423e-13, -7.590235532715135e-17),
    (0.8678774915771018, 0.001774381325039566, -5.944727426220968e-06, -4.12068521963195e-09,
     8.475558592990312e-11, -2.835150509360268e-13, -4.7766416426301965e-18),
    (0.8714024436990112, 0.0017505556566101252, -5.967440083341087e-06, -3.4539796060354464e-09,
     8.192138498230086e-11, -2.8317655291431365e-13, 6.023306441477994e-17),
    (0.874879658921746, 0.0017266470473645704, -5.986220485139933e-06, -2.8099238614313157e-09,
     7.909435997084531e-11, -2.820931833351563e-13, 1.1941548775915912e-16),
    (0.8783089869116344, 0.0017026709548138659, -6.00120430040698e-06, -2.1884317058096515e-09,
     7.628161540690125e-11, -2.8033311248315625e-13, 1.730639605100579e-16),
    (0.8816903077081534, 0.0016786422950511254, -6.0125265151264995e-06, -1.5893627028645374e-09,
     7.348959174136083e-11, -2.7796097864218707e-13, 2.2147336278190422e-16),
    (0.8850235306442465, 0.001654575446111741, -6.020321123194405e-06, -1.0125274310442466e-09,
     7.072410072694384e-11, -2.750378856094038e-13, 2.6493750916648427e-16),
    (0.8883085932745595, 0.0016304842525097243, -6.024720847313119e-06, -4.576923720075061e-10,
     6.799036065623207e-11, -2.7162142911334257e-13, 3.0374693819443146e-16),
    (0.8915454603138242, 0.0016063820308329303, -6.025856888374094e-06, 7.541548142694787e-11,
     6.529303120981029e-11, -2.677657475463615e-13, 3.3818706413279294e-16),
    (0.8947341225874021, 0.001582281576286568, -6.023858701656159e-06, 5.871042938024383e-10,
     6.263624769238753e-11, -2.6352159289561e-13, 3.6853665280508163e-16),
    (0.897874595995774, 0.0015581951700810283, -6.018853798197106e-06, 1.0777133263645263e-09,
     6.00236544736769e-11, -2.5893641820165636e-13, 3.950665856090041e-16),
    (0.9009669204945678, 0.0015341345875665613, -6.010967569733926e-06, 1.5476091402412082e-09,
     5.745843748541946e-11, -2.540544782884338e-13, 4.180388784756172e-16),
    (0.9040111590915273, 0.0015101111070236627, -6.000323135652337e-06, 1.9971820554211417e-09,
     5.4943355656553005e-11, -2.489169408917197e-13, 4.377059250987155e-16),
    (0.9070073968616449, 0.0014861355190241652, -5.987041210437041e-06, 2.426842856654012e-09,
     5.2480771195462645e-11, -2.435620056660521e-13, 4.543099363154145e-16),
    (0.9099557399815218, 0.0014622181362839608, -5.971239990169472e-06, 2.8370197367650326e-09,
     5.007267865180983e-11, -2.380250288724427e-13, 4.68082550000503e-16),
    (0.9128563147838631, 0.001438368803933971, -5.953035056678228e-06, 3.2281554674194376e-09,
     4.772073271091946e-11, -2.3233865184249183e-13, 4.792445882203125e-16),
    (0.9157092668328756, 0.0014145969101414437, -5.932539298008183e-06, 3.600704787069196e-09,
     4.542627469139649e-11, -2.265329315798486e-13, 4.880059406567884e-16),
    (0.9185147600212074, 0.0013909113970188667, -5.9098628439364415e-06, 3.955131995641813e-09,
     4.319035773181432e-11, -2.206354720989002e-13, 4.945655554459572e-16),
    (0.9212729756889424, 0.001367320771762748, -5.885113015326198e-06, 4.291908745470912e-09,
     4.101377066522537e-11, -2.1467155531474133e-13, 4.991115205692104e-16),
    (0.9239841117650593, 0.0013438331179692273, -5.858394286172464e-06, 4.611512018003051e-09,
     3.889706059112663e-11, -2.0866427048956732e-13, 5.018212207872004e-16),
    (0.9266483819316571, 0.0013204561070779353, -5.8298082572561405e-06, 4.914422275929801e-09,
     3.684055416359377e-11, -2.0263464141036987e-13, 5.02861556814436e-16),
    (0.9292660148111589, 0.0012971970098997344, -5.7994536403845145e-06, 5.20112178057469e-09,
     3.484437762177984e-11, -1.9660175062289814e-13, 5.023892150002252e-16),
    (0.931837253176622, 0.0012740627081879363, -5.7674262522565595e-06, 5.472093064599424e-09,
     3.290847559504854e-11, -1.9058286017894394e-13, 5.005509772127682e-16),
    (0.9343623531852023, 0.001251059706216324, -5.733819017050272e-06, 5.727817550372009e-09,
     3.1032628719847686e-11, -1.8459352846972266e-13, 4.97484061923665e-16),
    (0.9368415836347541, 0.0012281941423307992, -5.6987219768862475e-06, 5.9687743046519905e-09,
     2.9216470109183273e-11, -1.786477228189794e-13, 4.933164886666053e-16),
    (0.939275225243481, 0.0012054718004447487, -5.662222309376808e-06, 6.1954389205867035e-09,
     2.745950071836881e-11, -1.7275792759689612e-13, 4.881674591038945e-16),
    (0.9416635699524992, 0.001182898121451282, -5.62440435152292e-06, 6.408282518370361e-09,
     2.5761103652726005e-11, -1.6693524769126513e-13, 4.821477488854844e-16),
    (0.9440069202511224, 0.0011604782145283393, -5.585349629271967e-06, 6.6077708562888525e-09,
     2.4120557464215632e-11, -1.6118950723698357e-13, 4.753601053351479e-16),
    (0.9463055885246301, 0.001138216868315318, -5.545136892097927e-06, 6.7943635442521225e-09,
     2.253704848468336e-11, -1.5552934355988275e-13, 4.678996467552204e-16),
    (0.9485598964242464, 0.0011161185619423288, -5.5038421520117875e-06, 6.9685133522986396e-09,
     2.100968224360561e-11, -1.4996229633730103e-13, 4.598542598125646e-16),
    (0.9507701742590153, 0.0010941874758954684, -5.461538726453936e-06, 7.130665606938833e-09,
     1.9537494017995426e-11, -1.4449489201662813e-13, 4.5130499206151595e-16),
    (0.9529367604092303, 0.0010724275027036128, -5.418297284561957e-06, 7.281257668583629e-09,
     1.8119458561549623e-11, -1.39132723565181e-13, 4.423264371815901e-16),
    (0.9550600007610479, 0.0010508422574341718, -5.374185896346647e-06, 7.420718483677494e-09,
     1.6754499059248123e-11, -1.3388052565103444e-13, 4.32987110965379e-16),
    (0.9571402481618942, 0.0010294350879870447, -5.329270084346243e-06, 7.549468205520856e-09,
     1.5441495352510156e-11, -1.2874224537555275e-13, 4.2334981649160576e-16),
    (0.9591778618962478, 0.0010082090851776693, -5.283612877363879e-06, 7.667917878122489e-09,
     1.4179291478717206e-11, -1.237211086950188e-13, 4.1347199726560174e-16),
    (0.9611732071813727, 0.0009871670926015605, -5.237274865926227e-06, 7.776469177767285e-09,
     1.296670256747138e-11, -1.1881968268152368e-13, 4.034060774099522e-16),
    (0.9631266546825563, 0.0009663117162741308, -5.190314259132095e-06, 7.875514207317636e-09,
     1.1802521134406263e-11, -1.1403993378269678e-13, 3.931997882467213e-16),
    (0.9650385800473978, 0.0009456453340408444, -5.1427869425887705e-06, 7.96543533858668e-09,
     1.068552281173618e-11, -1.093832822463977e-13, 3.8289648083411254e-16),
    (0.9669093634586845, 0.0009251701047539125, -5.09474653716086e-06, 8.04660509842847e-09,
     9.614471553046118e-12, -1.0485065288057543e-13, 3.725354242088432e-16),
    (0.9687393892053846, 0.0009048879772127903, -5.046244458281664e-06, 8.119386094483301e-09,
     8.588124348110544e-12, -1.0044252232050438e-13, 3.6215208924471617e-16),
    (0.9705290452712847, 0.000884800698866684, -4.997329975600637e-06, 8.184130976795815e-09,
     7.605235481804611e-12, -9.61589629758561e-14, 3.51778418171339e-16),
    (0.9722787229407927, 0.0008649098242781392, -4.948050272762382e-06, 8.241182431789159e-09,
     6.664560369451348e-12, -9.199968382885331e-14, 3.4144307990777192e-16),
    (0.9739888164214281, 0.000845216723347563, -4.898450507132947e-06, 8.290873205330349e-09,
     5.764858999247091e-12, -8.796406825233104e-14, 3.311717114569178e-16),
    (0.9756597224825244, 0.0008257225892992221, -4.848573869308085e-06, 8.333526151860487e-09,
     4.904899010735351e-12, -8.405120901312239e-14, 3.2098714568020886e-16),
    (0.9772918401096641, 0.0008064284464298948, -4.798461642255594e-06, 8.369454306788603e-09,
     4.083458436665439e-12, -8.02599406219854e-14, 3.109096258308692e-16),
    (0.9788855701743762, 0.0007873351576219073, -4.748153259960027e-06, 8.398960979560263e-09,
     3.299328133983667e-12, -7.658886918646272e-14, 3.0095700726975133e-16),
    (0.9804413151186255, 0.0007684434316227835, -4.697686365452981e-06, 8.422339865011825e-09,
     2.5513139281670886e-12, -7.303639991776055e-14, 2.9114494682225137e-16),
    (0.9819594786536306, 0.0007497538300941755, -4.6470968681259614e-06, 8.43987517080899e-09,
     1.838238493626954e-12, -6.960076243707303e-14, 2.8148708025970617e-16),
    (0.9834404654725504, 0.0007312667744331314, -4.596419000235461e-06, 8.45184175894431e-09,
     1.1589429914841033e-12, -6.628003402087076e-14, 2.7199518840535994e-16),
    (0.9848846809765893, 0.0007129825523690905, -4.54568537252157e-06, 8.458505299433311e-09,
     5.122884846535739e-13, -6.307216091860558e-14, 2.6267935237471787e-16),
    (0.9862925310140749, 0.0006949013243402919, -4.494927028872117e-06, 8.460122434503034e-09,
     -1.0284285112814945e-13, -5.997497787013853e-14, 2.535480984639638e-16),
    (0.9876644216320709, 0.0006770231296535347, -4.444173499974136e-06, 8.456940951710963e-09,
     -6.875467029420504e-13, -5.698622594403494e-14, 2.446085331990728e-16),
    (0.989000758840097, 0.0006593478924314407, -4.3934528559034345e-06, 8.449199964566576e-09,
     -1.2428957667812375e-12, -5.4103568811746965e-14, 2.358664690531405e-16),
    (0.9903019483855334, 0.0006418754273515521, -4.342791757611213e-06, 8.437130099352987e-09,
     -1.7699390490108044e-12, -5.132460756666051e-14, 2.273265413310051e-16),
    (0.9915683955403, 0.0006246054451817465, -4.292215507274142e-06, 8.420953686962543e-09,
     -2.2697013091623806e-12, -4.864689419105985e-14, 2.1899231670910071e-16),
    (0.9928005048984059, 0.0006075375581165695, -4.241748097481104e-06, 8.400884958668503e-09,
     -2.7431826310343524e-12, -4.606794376828544e-14, 2.1086639390519534e-16),
    (0.9939986801839772, 0.0005906712849191833, -4.191412259235973e-06, 8.37713024485525e-09,
     -3.1913581100132798e-12, -4.3585245531752997e-14, 2.0295049693771711e-16),
    (0.995163324069377, 0.000574006055873697, -4.141229508761359e-06, 8.349888175822665e-09,
     -3.6151776454214307e-12, -4.119627283708168e-14, 1.9524556141816096e-16),
    (0.9962948380030461, 0.0005575412175526987, -4.091220193093327e-06, 8.319349883866414e-09,
     -4.015565827531535e-12, -3.88984921383594e-14, 1.8775181430294886e-16),
    (0.9973936220466963, 0.0005412760374048353, -4.041403534461622e-06, 8.285699205915603e-09,
     -4.393421909674889e-12, -3.66893710445626e-14, 1.8046884751338632e-16),
    (0.9984600747215046, 0.0005252097081673048, -3.991797673454024e-06, 8.249112886082897e-09,
     -4.7496198566049265e-12, -3.4566385527352403e-14, 1.7339568581426788e-16),
    (0.9994945928629594, 0.0005093413521081176, -3.942419710967119e-06, 8.209760777550088e-09,
     -5.085008460967496e-12, -3.2527026346892067e-14, 1.665308493234475e-16),
)

#: The same table by coefficient for the array path: _ERFCX_COEFFS[k] holds
#: c_k of the 128 pieces, a contiguous row.
_ERFCX_COEFFS = tuple(np.array(_ERFCX_PIECES).T.copy())

#: Points per block of every array kernel: elementwise, the one place an
#: array is split, runs a kernel body on at most this many points, so its
#: temporaries stay in cache (512 KB each, _erfcx's coefficient gather
#: included), and _exp answers a block whose every lane underflows with
#: zeros alone.  The ten tail_arrays kernels take, per 1e6 points in ms,
#: with blocks of 16,384 / 32,768 / 65,536 / 131,072 / 262,144 points,
#: 55 / 52 / 52 / 54 / 58 on one thread and 45 / 39 / 38 / 39 / 40 on two
#: (median of 5 runs, 2-core AMD EPYC VM): the threads wait on the
#: interpreter lock between numpy passes, more often the smaller the block.
_BLOCK = 65536

#: exp(y) is +0.0 for every y below this, -inf included: exp(-745.14) is
#: already below half the least subnormal, so it rounds to 0.
_EXP_ZERO = -745.2

#: Arrays of fewer points take np.exp directly (see _exp).  At 201 points
#: that takes 0.46 / 1.08 / 1.29 us with no / 37% / all lanes underflowing,
#: against 1.12 / 2.89 / 0.96 us for _exp's count and mask; with it at 0,
#: select_certify rounds ran 5-7% slower (in-process, 2-core VM).
_MASK_MIN = 4096


def _erfcx(z):
    """erfcx(z) = exp(z*z)*erfc(z) of a checked z >= 0: a Python float,
    NumPy scalar or 0-d array gives a Python float, an array gives an array.

    One formula covers every finite z: P_j(t)/(1+z), with P_j from the
    table above, which is y*P_j(t) with one rounding fewer.  128*y is taken
    as 128/(1+z), the same bits as 128*(1/(1+z)).  An array runs in one
    pass, its temporaries updated in place; the kernels call it on at most
    one _BLOCK of points (see elementwise).  A scalar runs the same IEEE
    operations in the same order in plain Python, so both paths give the
    same bits.  The array path gathers the coefficients one row at a time,
    c6 first as Horner's rule adds them, into one buffer of z's size, with
    ndarray.take in wrap mode, which skips the bounds check that clip mode
    repeats: j is already clipped to [0, 127], where wrap and clip pick the
    same entry.  The method skips np.take's Python wrapper, ~0.5 us a call
    (README, "Blocks").
    """
    if isinstance(z, float) or not np.ndim(z):
        w = 1.0 + float(z)
        u = 128.0 / w
        j = min(int(u), 127)
        t = 2.0 * (u - j) - 1.0
        c0, c1, c2, c3, c4, c5, c6 = _ERFCX_PIECES[j]
        return ((((((c6 * t + c5) * t + c4) * t + c3) * t + c2) * t + c1) * t + c0) / w
    w = np.asarray(z, dtype=float) + 1.0
    t = 128.0 / w
    j = t.astype(np.intp)  # floor, as t > 0
    np.minimum(j, 127, out=j)
    t -= j
    t *= 2.0
    t -= 1.0
    c = np.empty(t.shape)
    p = _ERFCX_COEFFS[6].take(j, mode="wrap", out=c) * t
    for k in range(5, 0, -1):
        p += _ERFCX_COEFFS[k].take(j, mode="wrap", out=c)
        p *= t
    p += _ERFCX_COEFFS[0].take(j, mode="wrap", out=c)
    p /= w
    return p


class LambertBranch(enum.Enum):
    """Real branch selector for the Lambert W function.

    PRINCIPAL is W0 on [-1/e, inf) with values >= -1; NEGATIVE is W-1 on
    [-1/e, 0) with values <= -1.  The two branches are the inverses of the
    two monotone pieces of h(w) = w*exp(w) on either side of w = -1.
    """

    PRINCIPAL = "principal"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class QValue:
    """A Gaussian tail probability together with a relative-accuracy bound."""

    value: float
    accuracy: float


def elementwise(sign=0):
    """Decorator for a kernel fn(x, *args) that is evaluated elementwise in x.

    x is checked to be finite and, for sign = +1 or -1, to satisfy
    sign*x >= 0; the messages name x after fn's first parameter (h requires
    w <= 0).  A float or a 0-d x reaches the kernel as a NumPy float64
    scalar and its result comes back as a Python float.  The scalar runs
    through the same ufunc loops as a 0-d array, so the bits are the same,
    and it is checked with plain comparisons instead of array reductions,
    which cost microseconds per call.  Any other x reaches the kernel as a
    float array, and the array result is returned.  An array is checked by
    its min and max, which build no temporary; only an array that fails
    builds the mask that names its first non-finite value.

    An array of more than _BLOCK points is checked once, whole; the same
    kernel body then runs on consecutive _BLOCK-point slices of it, each
    result written into one output of x's shape.  A block's temporaries
    stay in cache, where a whole-array body would allocate and page-fault
    several arrays of x's size.  The body is elementwise, so each point
    gets the same operations, and the same bits, as in one whole call.
    This is the one place an array is split: every body, and every helper
    it calls (_erfcx, _exp), runs once on the at most _BLOCK points it is
    given.  The blocks run on _WORKERS threads (see _run_blocks);
    numpy releases the interpreter lock inside each pass, so the threads
    overlap.  Smaller arrays and scalars never start a thread.
    """
    def decorate(fn):
        name = fn.__code__.co_varnames[0]
        bound = f"{fn.__name__} requires {name} {'>=' if sign > 0 else '<='} 0"

        @functools.wraps(fn)
        def kernel(x, *args):
            if isinstance(x, float):  # a Python float or a float64 scalar
                x = np.float64(x)
            else:
                x = np.asarray(x, dtype=float)
                if x.ndim:
                    # nan propagates through both; -0.0 and an empty x pass
                    lo, hi = x.min(initial=0.0), x.max(initial=0.0)
                    if not (math.isfinite(lo) and math.isfinite(hi)):
                        bad = float(x[~np.isfinite(x)].flat[0])
                        raise DomainError(f"{name} must be finite, got {bad!r}")
                    if min(sign * lo, sign * hi) < 0.0:
                        raise DomainError(bound)
                    if x.size <= _BLOCK:
                        return fn(x, *args)
                    out = np.empty(x.shape)
                    _run_blocks(fn, x.reshape(-1), out.reshape(-1), args)
                    return out
                x = x[()]
            if not math.isfinite(x):
                raise DomainError(f"{name} must be finite, got {float(x)!r}")
            if sign and sign * x < 0.0:
                raise DomainError(bound)
            return float(fn(x, *args))

        return kernel

    return decorate


#: Threads that run the blocks of one array: the CPUs this process may run
#: on.  There is no setting; on one CPU no thread is ever started.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # os.sched_getaffinity is Linux-only
    _WORKERS = os.cpu_count() or 1


def _run_blocks(fn, x, out, args):
    """out[b] = fn(x[b], *args) for every _BLOCK-point block b of the flat
    arrays x and out, on min(_WORKERS, blocks) threads: the calling thread
    and threads started for this call alone.  Each thread takes the next
    block not yet taken, so a thread slowed by another process leaves its
    share to the others.  Each runs under the caller's np.errstate, as a
    new thread starts with numpy's defaults.  An error ends its thread's
    run, and the others finish the blocks left.  Every thread is joined
    before the call returns or raises, so none writes into out once it
    has ended, and none outlives the call; then the first error is raised.
    """
    starts = range(0, x.size, _BLOCK)
    blocks = iter(starts)
    state = np.geterr()
    lock = threading.Lock()
    errors = []

    def run():
        try:
            with np.errstate(**state):
                while True:
                    with lock:
                        start = next(blocks, None)
                    if start is None:
                        return
                    stop = start + _BLOCK
                    out[start:stop] = fn(x[start:stop], *args)
        except BaseException as error:
            errors.append(error)

    threads = []
    try:
        for _ in range(min(_WORKERS, len(starts)) - 1):
            thread = threading.Thread(target=run, name="qbound-block")
            thread.start()
            threads.append(thread)
        run()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _exp(y):
    """np.exp(y), bit for bit, for a float, NumPy scalar or array y.

    np.exp takes a slow path on every SIMD vector that holds a lane that
    underflows: 4-7 ns a point where y < _EXP_ZERO, 9-11 ns on a random
    mix of such and normal points, against 1-1.5 ns in the normal range.
    So where any point of an array of at least _MASK_MIN points underflows,
    those lanes are clamped to _EXP_ZERO and zeroed by a mask, which exp
    maps to 1 and the same mask back to 0, exp(y)'s exact value, at ~4 ns
    a point whatever the mix.  Where every point underflows, as in almost
    every block of gauss(x, a) once a is large, the result is zeros alone.
    Where none does, np.exp alone: no benchmark workload gets there, but
    on 1e6 points of [-10, 10] the mask would cost q 12% and g_lower(x, 2)
    50%.  One count of the underflowing lanes tells the three apart; a nan
    lane does not count, so it reaches np.exp.  Masked ufunc forms (where=,
    copyto, putmask) are slower on a random mask than the slow path
    itself, so none is used.  y is never written to.
    """
    if type(y) is not np.ndarray or y.size < _MASK_MIN:
        return np.exp(y)
    under = y < _EXP_ZERO
    n_under = np.count_nonzero(under)
    if not n_under:
        return np.exp(y)
    if n_under == y.size:
        return np.zeros(y.shape)
    keep = np.logical_not(under, out=under)
    t = np.maximum(y, _EXP_ZERO)
    t *= keep  # -inf was clamped first: -inf*0 would be nan
    np.exp(t, out=t)
    t *= keep
    return t


def gauss(x, a):
    """exp(-a*x*x/2) of a checked x, a Python float, NumPy scalar or array:
    the Gaussian factor of every bound kernel, 0 without a warning where
    a*x*x overflows.  Its exp is _exp, which skips np.exp's underflow slow
    path on large arrays with the same bits."""
    with np.errstate(over="ignore"):
        return _exp(-0.5 * a * x * x)


@elementwise()
def q(x):
    """Gaussian tail probability Q(x) = P(Z > x), elementwise.

    Evaluated through the scaled complementary error function so the result
    keeps full relative accuracy far into the tail (down to the underflow
    threshold near x ~ 38.49).  Q(x) = 1 - Q(-x) for x < 0: on a scalar and
    an array alike as neg + tail*(1 - 2*neg), neg = (x < 0), the same bits
    (1 + -tail is 1 - tail, 0 + tail is tail) without a masked subtract,
    which is slow on a large random-sign mask.
    """
    ax = np.abs(x)
    tail = 0.5 * _erfcx(ax / _SQRT2) * gauss(ax, 1.0)
    neg = x < 0.0
    return neg + tail * (1.0 - 2.0 * neg)


def q_ref(x: float) -> QValue:
    """Reference evaluation of Q(x) with an explicit accuracy tag.

    The accuracy field is a bound on the relative error, from q's error
    budget in units of 2**-53.  For x > 0, rounding x*x costs up to x*x/2
    of them in exp(-x*x/2), more than 1e-14 once x > ~12.  The other
    roundings sum to ~8.5: z = x/sqrt(2) ~1.5, _erfcx's gated error 4,
    np.exp's 2 and the product's 1 (against mpmath, at most 3 beyond x*x/2
    on [-38, 37.5]); the tag allows 16 for them.  So it is
    max(1e-14, (x*x/2 + 16)*2**-53), degrading to the representable
    precision once the result falls into the subnormal range.
    """
    x = float(x)
    value = q(x)
    if value <= 0.0:
        acc = math.inf
    else:
        t = max(x, 0.0)
        acc = max(1e-14, (0.5 * t * t + 16.0) * 2.0**-53, math.ulp(value) / value)
    return QValue(value=value, accuracy=acc)


@elementwise(sign=1)
def mills_ratio(x):
    """Scaled Mills ratio R(x) = sqrt(2*pi) * Q(x) * exp(x**2 / 2), x >= 0.

    Computed as sqrt(pi/2) * erfcx(x / sqrt(2)); the naive product overflows
    for x beyond ~38 while this form is stable on [0, 1e8] and beyond.
    """
    return SQRT_HALF_PI * _erfcx(x / _SQRT2)


@elementwise(sign=-1)
def h(w):
    """h(w) = w * exp(w) for w <= 0.

    Strictly decreasing on (-inf, -1), strictly increasing on (-1, 0), with
    unique minimum h(-1) = -1/e and h -> 0 at both ends.
    """
    return w * _exp(w)


def newton(step, x: float) -> float:
    """Iterate x -= step(x) from the start x: the one root-polishing loop,
    which x2_point and lambert_w share.

    It stops at the first step that is 0, nan or no smaller in magnitude
    than the last one taken, which is rounding noise, and returns x
    without it.
    """
    last = math.inf
    for _ in range(60):
        dx = step(x)
        if not 0.0 < abs(dx) < last:
            break
        x, last = x - dx, abs(dx)
    return x


def lambert_w(z: float, branch: LambertBranch = LambertBranch.PRINCIPAL) -> float:
    """Real Lambert W: the solution w of w * exp(w) = z on the given branch.

    PRINCIPAL requires z >= -1/e and returns w >= -1; NEGATIVE requires
    -1/e <= z < 0 and returns w <= -1.

    newton polishes a closed-form start: the series about the branch point,
    log1p(z), or l1 - l2 + l2/l1 with l1 = log|z|, l2 = log|l1| (Corless et
    al. 1996, "On the Lambert W function").  Each step is Halley's on
    w*exp(w) - z, written in g = w - z/exp(w), the residual divided by
    exp(w), which overflows nowhere (their eq. 5.9).  Only where exp(w) is
    subnormal (w < -708, negative branch) is z/exp(w) out of range; there
    the step is Newton's on the log form w + log(-w) - log(-z).

    Against mpmath, w is within 2*max(1, 1/|1 + w|) units of 2**-53
    relative over the whole double range of z on both branches: 2 units
    away from the branch point, and 2 times W's condition number 1/|1 + w|
    near it.  The residual |w*exp(w) - z| stays below
    1e-14*max(|z|, 1e-300) on the samples of acceptance criterion 5.
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    principal = branch is LambertBranch.PRINCIPAL
    if z < BRANCH_POINT:
        raise DomainError(f"no real Lambert W for z = {z!r} < -1/e")
    if not principal and z >= 0.0:
        raise DomainError("negative branch requires -1/e <= z < 0")
    if z == BRANCH_POINT:
        return -1.0
    if z == 0.0:
        return 0.0

    # Square-root expansion around the branch point; d = p**2 = 2*(e*z + 1).
    d = max(2.0 * (math.e * z + 1.0), 0.0)
    if d < 0.04:
        p = math.sqrt(d) if principal else -math.sqrt(d)
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    elif principal and z < 3.0:
        w = math.log1p(z)
    else:
        l1 = math.log(abs(z))
        l2 = math.log(abs(l1))
        w = l1 - l2 + l2 / l1

    def step(w):
        ew = math.exp(w)
        if ew < sys.float_info.min:
            return (w + math.log(-w) - math.log(-z)) * w / (w + 1.0)
        g, wp1 = w - z / ew, w + 1.0
        return 2.0 * g * wp1 / (2.0 * wp1 * wp1 - (w + 2.0) * g)

    w = newton(step, w)
    # Rounding may push the result a hair across the branch boundary.
    if principal and w < -1.0:
        w = -1.0
    if not principal and w > -1.0:
        w = -1.0
    return w


__all__ = [
    "BRANCH_POINT",
    "LambertBranch",
    "QValue",
    "q",
    "q_ref",
    "mills_ratio",
    "h",
    "lambert_w",
]
